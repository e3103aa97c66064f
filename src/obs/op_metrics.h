#ifndef PULSE_OBS_OP_METRICS_H_
#define PULSE_OBS_OP_METRICS_H_

#include <string>

#include "obs/metrics.h"

namespace pulse {

/// Per-operator counters for the discrete (tuple-at-a-time) realization,
/// as handles into registry series. Bind() points them at
///
///   op/<name>/in, op/<name>/out                  (common)
///   op/<name>/invocations, op/<name>/comparisons (discrete)
///
/// in a registry, where every operator bound under the same name adds
/// into one series that outlives it (docs/OBSERVABILITY.md). The common
/// subset uses the same names as PulseOperatorMetrics, so both
/// realizations of one query are directly comparable per operator.
/// Until bound, the handles point at the struct's own counters, so an
/// operator built outside an executor still counts.
class OperatorMetrics {
 private:
  // Declared first: the handles below may point here.
  obs::Counter own_[4];

 public:
  OperatorMetrics() = default;
  OperatorMetrics(const OperatorMetrics&) = delete;
  OperatorMetrics& operator=(const OperatorMetrics&) = delete;

  void Bind(obs::MetricsRegistry* registry, const std::string& op_name);

  obs::Counter* tuples_in = &own_[0];
  obs::Counter* tuples_out = &own_[1];
  obs::Counter* invocations = &own_[2];
  /// Predicate/state evaluations: the join microbenchmark's "number of
  /// comparisons" driver (paper Fig. 5iii discussion).
  obs::Counter* comparisons = &own_[3];
};

/// Counters of a continuous-time operator, as handles bound the same way
/// as OperatorMetrics to
///
///   op/<name>/in, op/<name>/out, op/<name>/solves   (counters)
///   op/<name>/state_size                            (gauge)
///
/// `solves` counts equation-system executions — the quantity Pulse's
/// validation machinery works to minimize ("the solver executes
/// infrequently and only in the presence of errors", paper abstract).
/// `state_size` is this operator's level (buffered segments or pieces)
/// in a gauge that sums the levels of every operator bound to it; the
/// level leaves the sum when the operator is destroyed.
class PulseOperatorMetrics {
 private:
  // Declared first: the handles below may point here.
  obs::Counter own_[3];
  obs::Gauge own_state_size_;

 public:
  PulseOperatorMetrics() = default;
  PulseOperatorMetrics(const PulseOperatorMetrics&) = delete;
  PulseOperatorMetrics& operator=(const PulseOperatorMetrics&) = delete;

  void Bind(obs::MetricsRegistry* registry, const std::string& op_name);

  obs::Counter* segments_in = &own_[0];
  obs::Counter* segments_out = &own_[1];
  obs::Counter* solves = &own_[2];
  obs::GaugeLevel state_size{&own_state_size_};
};

}  // namespace pulse

#endif  // PULSE_OBS_OP_METRICS_H_
