#ifndef PULSE_STORE_SEGMENT_TREE_H_
#define PULSE_STORE_SEGMENT_TREE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "math/polynomial.h"

namespace pulse {
namespace store {

/// Pre-aggregated statistics over a stretch of modeled time — the
/// segment-tree node payload (after the NB-tree aggregation node of
/// SNIPPETS.md Snippet 1, adapted to continuous models). All fields
/// combine associatively, so a range query can sum O(log n) node
/// payloads instead of walking every leaf.
struct RangeAggregate {
  /// Leaf segments contributing (possibly clipped at the range edges).
  uint64_t count = 0;
  /// Total modeled duration covered.
  double coverage = 0.0;
  /// Exact ∫ v(t) dt over the covered time (polynomial antiderivative).
  double integral = 0.0;
  /// Σ of per-leaf time-averages over their covered spans: the discrete
  /// reading where each fitted segment is one observation.
  double sum = 0.0;
  /// Exact extrema of the piecewise model over the covered time
  /// (derivative roots + interval endpoints per leaf).
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  /// Covered time extent (union bounds).
  double t_lo = std::numeric_limits<double>::infinity();
  double t_hi = -std::numeric_limits<double>::infinity();

  void Combine(const RangeAggregate& other);

  bool empty() const { return count == 0; }
  /// Time-weighted mean over the covered span (0 on empty coverage).
  double mean() const { return coverage > 0 ? integral / coverage : 0.0; }

  std::string ToString() const;
};

/// Exact aggregate of polynomial `p` (absolute time) over [lo, hi]:
/// integral via the antiderivative, extrema via the roots of p' in
/// [lo, hi] plus the endpoints. A zero-length span contributes the
/// point value to min/max/sum and nothing to coverage/integral.
RangeAggregate AggregatePolynomial(const Polynomial& p, double lo, double hi);

/// How a query was answered; tests assert the O(log n) contract and
/// the bench reports it.
struct TreeQueryStats {
  /// Pre-aggregated node payloads combined (fully-covered subtrees).
  size_t nodes_combined = 0;
  /// Leaves recomputed exactly because the range cut through them.
  size_t edge_leaves = 0;
};

/// Balanced implicit binary tree over one series' leaves — the fitted
/// pieces of a single (stream, key, attribute), ordered by range start
/// and non-overlapping (the store's ApplySegmentUpdate timeline
/// invariant). Interior nodes pre-aggregate their leaf span, so
/// Query(lo, hi) combines O(log n) node payloads and recomputes at
/// most the two leaves the range edges cut through (exact fallback to
/// the leaf models; docs/STORAGE.md).
///
/// The tree holds no polynomial. A leaf carries its time bounds and a
/// caller-owned `ref` (the store uses the segment's timeline
/// position); each leaf's exact payload is computed once, when the
/// leaf enters, and a query resolves the two edge leaves' models
/// through the caller's `PolyOf`.
class SegmentTree {
 public:
  struct Leaf {
    double lo = 0.0;
    double hi = 0.0;
    size_t ref = 0;
  };
  /// Resolves a leaf's `ref` to its model.
  using PolyOf = std::function<const Polynomial&(size_t ref)>;

  /// Replaces the contents; `leaves` must be sorted by `lo` and
  /// non-overlapping.
  void Build(std::vector<Leaf> leaves, const PolyOf& poly_of);

  /// Appends one leaf, modeled by `poly`, at the end of modeled time:
  /// amortized O(log n). When capacity doubles, the existing leaf
  /// payloads are copied and only interior nodes are recombined.
  void Append(const Leaf& leaf, const Polynomial& poly);

  /// Aggregate over modeled time ∩ [lo, hi].
  RangeAggregate Query(double lo, double hi, const PolyOf& poly_of,
                       TreeQueryStats* stats = nullptr) const;

  size_t size() const { return leaves_.size(); }
  bool empty() const { return leaves_.empty(); }
  const std::vector<Leaf>& leaves() const { return leaves_; }

 private:
  void CombineInterior();
  void QueryRange(size_t node, size_t node_lo, size_t node_hi, size_t l,
                  size_t r, RangeAggregate* out, TreeQueryStats* stats) const;

  std::vector<Leaf> leaves_;
  /// 1-indexed implicit tree; leaf i lives at cap_ + i; node payloads
  /// of empty slots stay identity aggregates.
  std::vector<RangeAggregate> nodes_;
  size_t cap_ = 0;
};

}  // namespace store
}  // namespace pulse

#endif  // PULSE_STORE_SEGMENT_TREE_H_
