#ifndef PULSE_CORE_OPERATORS_GROUP_BY_H_
#define PULSE_CORE_OPERATORS_GROUP_BY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/operators/pulse_operator.h"

namespace pulse {

/// Per-group continuous aggregation (paper Fig. 3, row "Aggregate
/// group-by, function f"): hash-based group-by with one inner operator
/// instance (an "impl for f") per group. Segments route by their key;
/// inner outputs are re-keyed with the group key so downstream operators
/// (joins, filters, HAVING-style predicates) can keep grouping. The
/// inner operators count their solves into the group-by's `solves`
/// series; their other counters stay their own.
class PulseGroupBy : public PulseOperator {
 public:
  using InnerFactory =
      std::function<Result<std::unique_ptr<PulseOperator>>(Key group)>;

  PulseGroupBy(std::string name, InnerFactory factory);

  Status Process(size_t port, const Segment& segment,
                 SegmentBatch* out) override;
  Status Flush(SegmentBatch* out) override;
  void BindMetrics(obs::MetricsRegistry* registry) override;

  /// Delegates to the inner operator of the output's group.
  Result<std::vector<AllocatedBound>> InvertBound(
      const Segment& output, const std::string& attribute, double margin,
      const SplitHeuristic& split) const override;

  /// The inner operators record the lineage: delegates to the output's
  /// group, as InvertBound does.
  const std::vector<LineageEntry>* LookupCauses(
      const Segment& output) const override;

  size_t num_groups() const { return groups_.size(); }

  /// The inner operator for `group`, or nullptr when the group is unseen.
  PulseOperator* group_operator(Key group) const;

 private:
  Result<PulseOperator*> GetOrCreate(Key group);

  InnerFactory factory_;
  std::map<Key, std::unique_ptr<PulseOperator>> groups_;
};

}  // namespace pulse

#endif  // PULSE_CORE_OPERATORS_GROUP_BY_H_
