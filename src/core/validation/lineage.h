#ifndef PULSE_CORE_VALIDATION_LINEAGE_H_
#define PULSE_CORE_VALIDATION_LINEAGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "model/segment.h"

namespace pulse {

/// One input segment that contributed to an output segment. The paper
/// maintains "these inputs as query lineage, compactly as model
/// segments" (Section IV), and the gradient split heuristic needs the
/// input coefficients, so the entry holds the whole segment. It is
/// shared, not copied: an operator copies an input once, when it first
/// keeps it, and every output that input causes points at that copy.
struct LineageEntry {
  size_t port = 0;                      // which operator input it arrived on
  std::shared_ptr<const Segment> input;  // the causing segment
};

/// Per-operator lineage: output segment id -> the input segments that
/// caused it. Query inversion relies on exactly this mapping
/// (Section IV-B): continuous-time operators produce temporal sub-ranges
/// (Property 1) and modeled attributes are functional dependents of keys
/// (Property 2), so the causing set is unique.
class LineageStore {
 public:
  /// Records the causes of output `out_id`, whose validity is `out_range`.
  /// Ids must increase from one call to the next: an operator records
  /// each output as it mints the output's id (NextSegmentId).
  void Record(uint64_t out_id, const Interval& out_range,
              std::vector<LineageEntry> causes);

  /// Causes of `out_id`, or nullptr when unknown (e.g. already expired).
  /// The pointer is valid until the next Record, ExpireBefore or Clear.
  const std::vector<LineageEntry>* Lookup(uint64_t out_id) const;

  /// Drops records for outputs that ended before `t` (state bounded by
  /// reference-timestamp monotonicity).
  void ExpireBefore(double t);

  /// A push-scoped store holds only the current push's records:
  /// PulseExecutor clears it when the next push or the end-of-stream
  /// flush starts. BuildPulsePlan sets it on an operator when every
  /// operator below it is stateless (filter, map, epoch, distinct): they
  /// emit each output while processing its input and hold nothing back,
  /// so a record is read only by the inversion of the push that made it.
  void set_push_scoped(bool push_scoped) { push_scoped_ = push_scoped; }
  bool push_scoped() const { return push_scoped_; }

  size_t size() const { return records_.size(); }
  void Clear() { records_.clear(); }

 private:
  struct OutputRecord {
    uint64_t out_id = 0;
    Interval out_range;
    std::vector<LineageEntry> causes;
  };
  // In Record order, so sorted by out_id: lookups binary-search and the
  // sweep runs over contiguous memory.
  std::vector<OutputRecord> records_;
  bool push_scoped_ = false;
};

/// Allocates process-wide unique segment ids.
uint64_t NextSegmentId();

}  // namespace pulse

#endif  // PULSE_CORE_VALIDATION_LINEAGE_H_
