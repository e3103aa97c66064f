#ifndef PULSE_OBS_OP_METRICS_H_
#define PULSE_OBS_OP_METRICS_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "util/atomic_counter.h"

namespace pulse {

/// Per-operator counters for the discrete (tuple-at-a-time) realization,
/// used by the benchmark harness to report the paper's processing-cost
/// and throughput series. Counters are relaxed atomics so they stay
/// truthful while exporters read them from other threads (see
/// docs/CONCURRENCY.md).
struct OperatorMetrics {
  RelaxedCounter tuples_in = 0;
  RelaxedCounter tuples_out = 0;
  RelaxedCounter invocations = 0;
  /// Predicate/state evaluations: the join microbenchmark's "number of
  /// comparisons" driver (paper Fig. 5iii discussion).
  RelaxedCounter comparisons = 0;
  /// Wall-clock nanoseconds spent inside Process/AdvanceTime.
  RelaxedCounter processing_ns = 0;

  void Reset() { *this = OperatorMetrics(); }

  double processing_seconds() const {
    return static_cast<double>(processing_ns) * 1e-9;
  }

  std::string ToString() const;
};

/// Counters for a continuous-time operator. `solves` counts equation-
/// system executions — the quantity Pulse's validation machinery works to
/// minimize ("the solver executes infrequently and only in the presence
/// of errors", paper abstract). Counters are relaxed atomics so exporters
/// on other threads read them without a data race.
struct PulseOperatorMetrics {
  RelaxedCounter segments_in = 0;
  RelaxedCounter segments_out = 0;
  RelaxedCounter solves = 0;
  RelaxedCounter state_size = 0;  // last observed buffered segments/pieces
  RelaxedCounter processing_ns = 0;

  void Reset() { *this = PulseOperatorMetrics(); }
  double processing_seconds() const {
    return static_cast<double>(processing_ns) * 1e-9;
  }
};

/// Publishes a discrete operator's counters into a registry under the
/// unified naming scheme (docs/OBSERVABILITY.md):
///
///   op/<name>/in, op/<name>/out, op/<name>/processing_ns   (common)
///   op/<name>/invocations, op/<name>/comparisons           (discrete)
///
/// The common subset uses the same names as the Pulse overload below, so
/// both realizations of one query are directly comparable per operator.
void RegisterOperatorViews(obs::ViewGroup& group, const std::string& op_name,
                           const OperatorMetrics& metrics);

/// Pulse overload: common subset as above plus
///
///   op/<name>/solves                       (counter)
///   op/<name>/state_size                   (gauge)
void RegisterOperatorViews(obs::ViewGroup& group, const std::string& op_name,
                           const PulseOperatorMetrics& metrics);

}  // namespace pulse

#endif  // PULSE_OBS_OP_METRICS_H_
