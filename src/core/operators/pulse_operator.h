#ifndef PULSE_CORE_OPERATORS_PULSE_OPERATOR_H_
#define PULSE_CORE_OPERATORS_PULSE_OPERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/validation/lineage.h"
#include "core/validation/splits.h"
#include "model/segment.h"
#include "obs/op_metrics.h"
#include "util/result.h"
#include "util/status.h"

namespace pulse {

/// Base class of continuous-time operators. Each operator is a closed
/// equation system: it consumes segments and produces segments, so
/// segments are the plan's first-class datatype (paper Section III-C).
/// Update segments drive execution: arrival of a segment triggers
/// instantiation and solving of the operator's system.
class PulseOperator {
 public:
  explicit PulseOperator(std::string name) : name_(std::move(name)) {}
  virtual ~PulseOperator() = default;

  PulseOperator(const PulseOperator&) = delete;
  PulseOperator& operator=(const PulseOperator&) = delete;

  const std::string& name() const { return name_; }

  virtual size_t num_inputs() const { return 1; }

  /// Consumes one segment on `port`; appends output segments to `out`.
  virtual Status Process(size_t port, const Segment& segment,
                         SegmentBatch* out) = 0;

  /// End-of-stream: emit residual state (e.g. pending window functions).
  virtual Status Flush(SegmentBatch* out);

  /// Local bound inversion (paper Section IV-B): given an output segment
  /// this operator produced and a symmetric margin on one of its output
  /// attributes, apportion conservative margins onto the causing input
  /// segments (identified through lineage) using `split`. The default
  /// implementation fails with Unimplemented.
  virtual Result<std::vector<AllocatedBound>> InvertBound(
      const Segment& output, const std::string& attribute, double margin,
      const SplitHeuristic& split) const;

  /// Points the counters at the registry's op/<name>/... series.
  /// Executors call this when a registry is attached.
  virtual void BindMetrics(obs::MetricsRegistry* registry) {
    metrics_.Bind(registry, name_);
  }

  PulseOperatorMetrics& metrics() { return metrics_; }
  const PulseOperatorMetrics& metrics() const { return metrics_; }

  /// Lineage recorded by this operator (outputs -> causing inputs), used
  /// by query inversion.
  LineageStore& lineage() { return lineage_; }
  const LineageStore& lineage() const { return lineage_; }

  /// The causes of `output`, an output this operator emitted, or nullptr
  /// when they are unknown or expired. Query inversion finds causes only
  /// through here. The default reads this operator's own lineage; an
  /// operator whose outputs are recorded elsewhere (a group-by's inner
  /// operators) overrides it.
  virtual const std::vector<LineageEntry>* LookupCauses(
      const Segment& output) const {
    return lineage_.Lookup(output.id);
  }

 protected:
  PulseOperatorMetrics metrics_;
  LineageStore lineage_;

 private:
  std::string name_;
};

}  // namespace pulse

#endif  // PULSE_CORE_OPERATORS_PULSE_OPERATOR_H_
