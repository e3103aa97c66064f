#ifndef PULSE_CORE_OPERATORS_FILTER_H_
#define PULSE_CORE_OPERATORS_FILTER_H_

#include <string>
#include <vector>

#include "core/operators/pulse_operator.h"
#include "core/predicate.h"

namespace pulse {

/// Continuous-time filter (paper Fig. 3, row "Filter"): for each input
/// segment it instantiates the equation system D = [x_i - c_i], solves
/// D t R 0 within the segment's validity range, and emits the segment
/// restricted to the solution time ranges — {(t, x_i) | D t R 0}.
///
/// The filter is stateless: the system is built from the contents of the
/// incoming segment alone (Section III-A).
class PulseFilter : public PulseOperator {
 public:
  PulseFilter(std::string name, Predicate predicate);

  Status Process(size_t port, const Segment& segment,
                 SegmentBatch* out) override;

  Result<std::vector<AllocatedBound>> InvertBound(
      const Segment& output, const std::string& attribute, double margin,
      const SplitHeuristic& split) const override;

  /// Slack of the filter's system for `segment` (paper Section IV):
  /// min_t ||D t||_inf over the segment range. Only defined for
  /// conjunctive predicates; non-conjunctive predicates return 0 so the
  /// caller always revalidates.
  Result<double> ComputeSlack(const Segment& segment) const;

  const Predicate& predicate() const { return predicate_; }

 private:
  Predicate predicate_;
  // Per-push solution, reused across pushes so it stops allocating once
  // warm.
  IntervalSet solution_;
};

/// Builds the resolver mapping kLeft attribute references onto one
/// segment's models (shared by filter and aggregate operators).
AttrResolver MakeUnaryResolver(const Segment& segment);

}  // namespace pulse

#endif  // PULSE_CORE_OPERATORS_FILTER_H_
