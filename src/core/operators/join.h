#ifndef PULSE_CORE_OPERATORS_JOIN_H_
#define PULSE_CORE_OPERATORS_JOIN_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/operators/pulse_operator.h"
#include "core/predicate.h"

namespace pulse {

/// Packs a pair of entity keys into one output key. Requires both keys to
/// fit 32 bits (entity populations in the paper's workloads are far
/// smaller). Join outputs describe entity *pairs*, and downstream
/// group-bys (e.g. the AIS following query's GROUP BY id1, id2) group on
/// this composite.
Key CombineKeys(Key left, Key right);

/// Inverse of CombineKeys.
void SplitKeys(Key combined, Key* left, Key* right);

/// Options controlling key handling in the continuous join.
struct PulseJoinOptions {
  /// Time window bounding each side's segment buffer, seconds.
  double window_seconds = 1.0;
  /// Only match segments with equal keys (hash-partition equi-join on the
  /// key attribute, e.g. MACD's "S.Symbol = L.Symbol").
  bool match_keys = false;
  /// Only match segments with distinct keys (self-join guards such as
  /// "R.id <> S.id" in the collision query).
  bool require_distinct_keys = false;
  /// Attribute name prefixes applied to the joined segment.
  std::string left_prefix = "left.";
  std::string right_prefix = "right.";
};

/// Continuous-time join (paper Fig. 3, row "Join"): order-based segment
/// buffers per side; an arriving segment is aligned against every stored
/// opposite-side segment it overlaps in time (equi-join semantics along
/// the time dimension, Section III-A), and the system D = [x_i - y_i] is
/// solved over the overlap. Outputs {(t, x_i, y_i) | D t R 0} — joined
/// segments carrying both sides' models, valid on the solution ranges.
class PulseJoin : public PulseOperator {
 public:
  PulseJoin(std::string name, Predicate predicate, PulseJoinOptions options);

  size_t num_inputs() const override { return 2; }

  Status Process(size_t port, const Segment& segment,
                 SegmentBatch* out) override;

  Result<std::vector<AllocatedBound>> InvertBound(
      const Segment& output, const std::string& attribute, double margin,
      const SplitHeuristic& split) const override;

  /// Slack against the stored opposite-side segments overlapping
  /// `segment` (min over partners; +inf when no partner overlaps).
  Result<double> ComputeSlack(size_t port, const Segment& segment) const;

  size_t left_buffer_size() const { return left_.size(); }
  size_t right_buffer_size() const { return right_.size(); }

 private:
  // --- Compiled predicate row program -------------------------------
  // Conjunctive predicates are flattened once at construction into
  // comparison rows whose attribute references are slot indices into
  // per-side name tables. Stored segments then carry tables of resolved
  // `const Polynomial*` (attribute-map nodes are pointer-stable and
  // deque elements never move), so the per-pair system build is pointer
  // dereferences instead of a resolver std::function, per-row attribute
  // map probes, and Result<Polynomial> copies — the dominant non-solve
  // cost of the Fig. 7 join hot path. Pairs touching a segment that
  // lacks a referenced attribute fall back to the resolver path, so
  // error statuses are identical to the uncompiled build.
  struct SlotRef {
    Side side = Side::kLeft;
    size_t slot = 0;
  };
  struct CompiledRow {
    ComparisonTerm::Kind kind = ComparisonTerm::Kind::kSimple;
    CmpOp op = CmpOp::kEq;
    // kSimple operands.
    SlotRef lhs;
    bool rhs_is_attr = false;
    SlotRef rhs;
    double rhs_constant = 0.0;
    // kDistance2 operands.
    SlotRef x1, y1, x2, y2;
    double threshold = 0.0;
  };
  // Slot -> polynomial table for one side of one segment. `complete` is
  // false when any referenced attribute is absent from the segment (and
  // always when the predicate is not compiled).
  struct ResolvedAttrs {
    std::vector<const Polynomial*> ptr;
    bool complete = false;
  };
  // One stored segment of a side's buffer with its pointer table, which
  // points into the segment's attribute map. The segment is the copy
  // the join took on arrival; the lineage of every output it joins into
  // shares it.
  struct StoredSegment {
    std::shared_ptr<const Segment> segment;
    ResolvedAttrs resolved;
  };
  // A stored partner aligned with an arriving segment: operands oriented
  // left/right, and the time overlap the pair's system is solved over.
  struct Pair {
    const Segment* left;
    const Segment* right;
    const ResolvedAttrs* left_resolved;
    const ResolvedAttrs* right_resolved;
    const StoredSegment* partner;
    Interval overlap;
  };

  void CompilePredicate();
  SlotRef SlotRefFor(const AttrRef& ref);
  ResolvedAttrs Resolve(Side side, const Segment& segment) const;
  // Rebuilds *out from resolved operand pointers with the exact
  // polynomial-arithmetic sequence of Predicate::BuildRow, so the rows
  // (and everything solved from them) are bit-identical to the resolver
  // path's.
  void BuildCompiledSystem(const ResolvedAttrs& left,
                           const ResolvedAttrs& right,
                           EquationSystem* out) const;

  // Appends to *pairs, in arrival order, every stored opposite-side
  // partner of `segment` (arrived on `port`, pointer table `probe`) that
  // passes the key guards and overlaps it in time. Matching and slack
  // both enumerate partners through here.
  void CollectPairs(size_t port, const Segment& segment,
                    const ResolvedAttrs& probe, std::vector<Pair>* pairs) const;
  // Solves `arriving` (arrived on `port`) against every admissible
  // stored partner, emitting (ids, lineage, output order) in partner
  // order.
  Status MatchPartners(size_t port, const StoredSegment& arriving,
                       SegmentBatch* out);
  bool KeysAdmissible(const Segment& a, const Segment& b) const;
  void Expire(double now);
  Segment MakeJoined(const Segment& left, const Segment& right,
                     const Interval& valid) const;

  Predicate predicate_;
  PulseJoinOptions options_;
  bool compiled_ = false;
  std::vector<CompiledRow> compiled_rows_;
  std::vector<std::string> slot_names_[2];  // [0] = left, [1] = right
  // Per-push scratch, reused across pushes so pair collection,
  // pair-system construction and solution collection stop allocating
  // once warm (docs/PERFORMANCE.md). Only MatchPartners touches them;
  // their capacity only grows.
  std::vector<Pair> pair_scratch_;
  std::vector<EquationSystemTask> task_scratch_;
  std::vector<IntervalSet> solution_scratch_;
  // Each side's stored segments in arrival order; deque elements never
  // move, so the pointer tables stay valid until the element expires.
  std::deque<StoredSegment> left_;
  std::deque<StoredSegment> right_;
  double latest_time_ = 0.0;
  double last_lineage_expire_ = 0.0;
};

/// Resolver mapping kLeft/kRight references onto a segment pair.
AttrResolver MakeBinaryResolver(const Segment& left, const Segment& right);

}  // namespace pulse

#endif  // PULSE_CORE_OPERATORS_JOIN_H_
