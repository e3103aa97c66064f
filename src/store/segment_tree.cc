#include "store/segment_tree.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "math/roots.h"

namespace pulse {
namespace store {

void RangeAggregate::Combine(const RangeAggregate& other) {
  if (other.count == 0) return;
  count += other.count;
  coverage += other.coverage;
  integral += other.integral;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  t_lo = std::min(t_lo, other.t_lo);
  t_hi = std::max(t_hi, other.t_hi);
}

std::string RangeAggregate::ToString() const {
  std::ostringstream os;
  os << "RangeAggregate{count=" << count << ", coverage=" << coverage
     << ", integral=" << integral << ", sum=" << sum << ", min=" << min
     << ", max=" << max << ", span=[" << t_lo << ", " << t_hi << "]}";
  return os.str();
}

RangeAggregate AggregatePolynomial(const Polynomial& p, double lo,
                                   double hi) {
  RangeAggregate agg;
  if (hi < lo) return agg;
  agg.count = 1;
  agg.t_lo = lo;
  agg.t_hi = hi;
  const double at_lo = p.Evaluate(lo);
  if (hi == lo) {
    agg.min = agg.max = agg.sum = at_lo;
    return agg;
  }
  agg.coverage = hi - lo;
  agg.integral = p.Integrate(lo, hi);
  agg.sum = agg.integral / (hi - lo);
  const double at_hi = p.Evaluate(hi);
  agg.min = std::min(at_lo, at_hi);
  agg.max = std::max(at_lo, at_hi);
  const Polynomial deriv = p.Derivative();
  if (!deriv.IsZero()) {
    for (double r : FindRealRoots(deriv, lo, hi)) {
      const double v = p.Evaluate(r);
      agg.min = std::min(agg.min, v);
      agg.max = std::max(agg.max, v);
    }
  }
  return agg;
}

void SegmentTree::Build(std::vector<Leaf> leaves, const PolyOf& poly_of) {
  leaves_ = std::move(leaves);
  cap_ = 1;
  while (cap_ < leaves_.size()) cap_ *= 2;
  nodes_.assign(2 * cap_, RangeAggregate{});
  for (size_t i = 0; i < leaves_.size(); ++i) {
    const Leaf& leaf = leaves_[i];
    nodes_[cap_ + i] = AggregatePolynomial(poly_of(leaf.ref), leaf.lo, leaf.hi);
  }
  CombineInterior();
}

void SegmentTree::CombineInterior() {
  for (size_t i = cap_ - 1; i >= 1; --i) {
    nodes_[i] = nodes_[2 * i];
    nodes_[i].Combine(nodes_[2 * i + 1]);
  }
}

void SegmentTree::Append(const Leaf& leaf, const Polynomial& poly) {
  leaves_.push_back(leaf);
  if (leaves_.size() > cap_) {
    // Double the capacity: the leaf payloads move to the new bottom row
    // as they are, and only the interior is recombined.
    const size_t old_cap = cap_;
    cap_ = std::max<size_t>(1, 2 * cap_);
    std::vector<RangeAggregate> nodes(2 * cap_);
    std::copy(nodes_.begin() + old_cap, nodes_.end(), nodes.begin() + cap_);
    nodes_ = std::move(nodes);
    CombineInterior();
  }
  size_t node = cap_ + leaves_.size() - 1;
  nodes_[node] = AggregatePolynomial(poly, leaf.lo, leaf.hi);
  for (node /= 2; node >= 1; node /= 2) {
    nodes_[node] = nodes_[2 * node];
    nodes_[node].Combine(nodes_[2 * node + 1]);
  }
}

RangeAggregate SegmentTree::Query(double lo, double hi,
                                  const PolyOf& poly_of,
                                  TreeQueryStats* stats) const {
  RangeAggregate out;
  if (leaves_.empty() || hi < lo) return out;
  // First leaf whose span reaches past `lo` (leaves sorted by lo and
  // non-overlapping, so hi is sorted too).
  const auto first_it = std::lower_bound(
      leaves_.begin(), leaves_.end(), lo,
      [](const Leaf& leaf, double t) { return leaf.hi <= t; });
  if (first_it == leaves_.end()) return out;
  // Last leaf starting before `hi`.
  const auto last_it = std::upper_bound(
      leaves_.begin(), leaves_.end(), hi,
      [](double t, const Leaf& leaf) { return t < leaf.lo; });
  if (last_it == leaves_.begin()) return out;
  size_t first = static_cast<size_t>(first_it - leaves_.begin());
  size_t last = static_cast<size_t>(last_it - leaves_.begin()) - 1;
  if (first > last) return out;

  // Edge leaves the range may cut through are recomputed exactly from
  // their models over the clipped span; everything strictly between is
  // answered from pre-aggregated nodes.
  const auto edge = [&](size_t i) {
    const Leaf& leaf = leaves_[i];
    const double a = std::max(leaf.lo, lo);
    const double b = std::min(leaf.hi, hi);
    if (b < a) return;
    out.Combine(AggregatePolynomial(poly_of(leaf.ref), a, b));
    if (stats != nullptr) ++stats->edge_leaves;
  };
  edge(first);
  if (last != first) {
    if (last > first + 1) {
      QueryRange(1, 0, cap_ - 1, first + 1, last - 1, &out, stats);
    }
    edge(last);
  }
  return out;
}

void SegmentTree::QueryRange(size_t node, size_t node_lo, size_t node_hi,
                             size_t l, size_t r, RangeAggregate* out,
                             TreeQueryStats* stats) const {
  if (r < node_lo || node_hi < l) return;
  if (l <= node_lo && node_hi <= r) {
    out->Combine(nodes_[node]);
    if (stats != nullptr) ++stats->nodes_combined;
    return;
  }
  const size_t mid = node_lo + (node_hi - node_lo) / 2;
  QueryRange(2 * node, node_lo, mid, l, r, out, stats);
  QueryRange(2 * node + 1, mid + 1, node_hi, l, r, out, stats);
}

}  // namespace store
}  // namespace pulse
