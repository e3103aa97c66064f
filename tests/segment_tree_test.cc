// Oracle tests for the pre-aggregated segment tree (docs/STORAGE.md):
// tree-served min/max/sum/count/integral over random ranges must match
// a brute-force replay over the leaf models — bitwise for
// min/max/count (associative combines), within tight relative
// tolerance for the summed fields (fp grouping differs between the
// tree and a linear scan) — including ranges straddling node and epoch
// boundaries, and the O(log n) query-cost contract.
#include "store/segment_tree.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace pulse {
namespace store {
namespace {

constexpr double kRelTol = 1e-9;

void ExpectNearRel(double expected, double actual, const char* what) {
  const double tol = kRelTol * std::max(1.0, std::fabs(expected));
  EXPECT_NEAR(expected, actual, tol) << what;
}

// Leaves and the models they reference: leaf i has ref i. The tree
// keeps no polynomial, so the test owns them the way the store's
// timeline does.
struct Series {
  std::vector<SegmentTree::Leaf> leaves;
  std::vector<Polynomial> polys;

  void Add(double lo, double hi, Polynomial poly) {
    leaves.push_back(SegmentTree::Leaf{lo, hi, polys.size()});
    polys.push_back(std::move(poly));
  }
  SegmentTree::PolyOf poly_of() const {
    return [this](size_t ref) -> const Polynomial& { return polys[ref]; };
  }
};

SegmentTree BuildTree(const Series& series) {
  SegmentTree tree;
  tree.Build(series.leaves, series.poly_of());
  return tree;
}

// The brute-force oracle: clip every leaf against [lo, hi] exactly the
// way the tree's edge fallback does, and combine linearly.
RangeAggregate BruteForce(const Series& series, double lo, double hi) {
  RangeAggregate out;
  for (const auto& leaf : series.leaves) {
    const double a = std::max(leaf.lo, lo);
    const double b = std::min(leaf.hi, hi);
    if (b < a) continue;
    // The tree's closed-range convention: an instant exactly on a leaf
    // boundary contributes a point value from the leaf owning it, but
    // the leaf *ending* there (hi <= lo) is excluded.
    if (leaf.hi <= lo) continue;
    out.Combine(AggregatePolynomial(series.polys[leaf.ref], a, b));
  }
  return out;
}

Series RandomLeaves(uint64_t seed, size_t n) {
  Rng rng(seed);
  Series series;
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double len = rng.Uniform(0.1, 2.0);
    // Mixed degrees: constants, lines, and curvy cubics whose extrema
    // sit strictly inside the leaf (exercises the derivative roots).
    Polynomial poly;
    switch (rng.UniformInt(0, 2)) {
      case 0:
        poly = Polynomial({rng.Uniform(-5.0, 5.0)});
        break;
      case 1:
        poly = Polynomial({rng.Uniform(-5.0, 5.0), rng.Uniform(-1.0, 1.0)});
        break;
      default:
        poly = Polynomial({rng.Uniform(-5.0, 5.0), rng.Uniform(-1.0, 1.0),
                           rng.Uniform(-0.5, 0.5), rng.Uniform(-0.1, 0.1)});
        break;
    }
    series.Add(t, t + len, std::move(poly));
    t += len;  // contiguous: every interior boundary is shared
  }
  return series;
}

void ExpectAggEq(const RangeAggregate& oracle, const RangeAggregate& got,
                 const std::string& context) {
  ASSERT_EQ(oracle.count, got.count) << context;
  if (oracle.count == 0) return;
  // Exact fields: associative min/max combine bitwise identically no
  // matter how the tree groups them.
  EXPECT_EQ(oracle.min, got.min) << context;
  EXPECT_EQ(oracle.max, got.max) << context;
  EXPECT_EQ(oracle.t_lo, got.t_lo) << context;
  EXPECT_EQ(oracle.t_hi, got.t_hi) << context;
  // Summed fields: grouping differs, tolerance is tight but not zero.
  ExpectNearRel(oracle.coverage, got.coverage, context.c_str());
  ExpectNearRel(oracle.integral, got.integral, context.c_str());
  ExpectNearRel(oracle.sum, got.sum, context.c_str());
}

TEST(SegmentTree, EmptyTreeAnswersEmpty) {
  const Series none;
  SegmentTree tree;
  EXPECT_TRUE(tree.Query(0.0, 10.0, none.poly_of()).empty());
  tree.Build({}, none.poly_of());
  EXPECT_TRUE(tree.Query(0.0, 10.0, none.poly_of()).empty());
}

TEST(SegmentTree, SingleLeafExactAggregates) {
  // v(t) = (t-2)^2 = 4 - 4t + t^2 on [0, 4]: min 0 at t=2, max 4 at
  // both endpoints, integral 2*(8/3).
  Series series;
  series.Add(0.0, 4.0, Polynomial({4.0, -4.0, 1.0}));
  const SegmentTree tree = BuildTree(series);
  RangeAggregate agg = tree.Query(0.0, 4.0, series.poly_of());
  EXPECT_EQ(agg.count, 1u);
  EXPECT_EQ(agg.min, 0.0);
  EXPECT_EQ(agg.max, 4.0);
  EXPECT_NEAR(agg.integral, 16.0 / 3.0, 1e-12);
  EXPECT_NEAR(agg.mean(), 4.0 / 3.0, 1e-12);
  // Interior clip [1, 3]: max is at the clip edges (value 1), the
  // interior minimum still found by the derivative root.
  agg = tree.Query(1.0, 3.0, series.poly_of());
  EXPECT_EQ(agg.min, 0.0);
  EXPECT_EQ(agg.max, 1.0);
  EXPECT_NEAR(agg.integral, 2.0 / 3.0, 1e-12);
}

TEST(SegmentTree, RandomRangesMatchBruteForce) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Series series = RandomLeaves(seed, 257);  // odd: partial last node
    const SegmentTree tree = BuildTree(series);
    const double t_end = series.leaves.back().hi;
    Rng rng(seed * 977 + 1);
    for (int i = 0; i < 200; ++i) {
      double lo = rng.Uniform(-1.0, t_end + 1.0);
      double hi = rng.Uniform(-1.0, t_end + 1.0);
      if (hi < lo) std::swap(lo, hi);
      const RangeAggregate oracle = BruteForce(series, lo, hi);
      const RangeAggregate got = tree.Query(lo, hi, series.poly_of());
      ExpectAggEq(oracle, got,
                  "seed " + std::to_string(seed) + " range [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
  }
}

TEST(SegmentTree, RangesStraddlingLeafBoundariesMatchBruteForce) {
  const Series series = RandomLeaves(7, 64);
  const std::vector<SegmentTree::Leaf>& leaves = series.leaves;
  const SegmentTree tree = BuildTree(series);
  // Ranges pinned exactly on leaf boundaries — where half-open leaf
  // intervals meet the closed query convention — and epsilon around
  // them.
  for (size_t i = 0; i < leaves.size(); ++i) {
    for (size_t j = i; j < std::min(leaves.size(), i + 9); ++j) {
      const double lo = leaves[i].lo;
      const double hi = leaves[j].hi;
      for (const auto& [a, b] :
           {std::pair{lo, hi}, {lo - 1e-9, hi + 1e-9},
            {lo + 1e-9, hi - 1e-9}, {lo, leaves[j].lo}}) {
        if (b < a) continue;
        ExpectAggEq(BruteForce(series, a, b),
                    tree.Query(a, b, series.poly_of()),
                    "boundary range [" + std::to_string(a) + ", " +
                        std::to_string(b) + "]");
      }
    }
  }
}

TEST(SegmentTree, AppendMatchesBuild) {
  // 100 appends cross seven capacity doublings; growth copies the leaf
  // payloads instead of recomputing them, and every interior node is
  // the same combine of the same children as in the built tree, so
  // the answers are bitwise equal on every field.
  const Series series = RandomLeaves(13, 100);
  const SegmentTree built = BuildTree(series);
  SegmentTree grown;
  for (const auto& leaf : series.leaves) {
    grown.Append(leaf, series.polys[leaf.ref]);
  }
  ASSERT_EQ(grown.size(), built.size());
  const double t_end = series.leaves.back().hi;
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    double lo = rng.Uniform(0.0, t_end);
    double hi = rng.Uniform(0.0, t_end);
    if (hi < lo) std::swap(lo, hi);
    const RangeAggregate want = built.Query(lo, hi, series.poly_of());
    const RangeAggregate got = grown.Query(lo, hi, series.poly_of());
    ExpectAggEq(want, got, "append-vs-build range");
    EXPECT_EQ(want.coverage, got.coverage);
    EXPECT_EQ(want.integral, got.integral);
    EXPECT_EQ(want.sum, got.sum);
  }
}

TEST(SegmentTree, QueryCostIsLogarithmic) {
  const Series series = RandomLeaves(17, 4096);
  const SegmentTree tree = BuildTree(series);
  const double t_end = series.leaves.back().hi;
  Rng rng(5);
  size_t worst_nodes = 0;
  for (int i = 0; i < 300; ++i) {
    double lo = rng.Uniform(0.0, t_end);
    double hi = rng.Uniform(0.0, t_end);
    if (hi < lo) std::swap(lo, hi);
    TreeQueryStats stats;
    tree.Query(lo, hi, series.poly_of(), &stats);
    EXPECT_LE(stats.edge_leaves, 2u);
    worst_nodes = std::max(worst_nodes, stats.nodes_combined);
  }
  // A canonical segment tree touches at most ~2·log2(n) interior
  // payloads; 4096 leaves → 12 levels → bound 24, with headroom.
  EXPECT_LE(worst_nodes, 26u);
  EXPECT_GT(worst_nodes, 0u);
}

TEST(SegmentTree, TupleReplayApproximatesTreeAnswer) {
  // The tree serves the *model*; a dense tuple replay (sampling each
  // leaf's polynomial) must approach the same aggregates as the grid
  // shrinks — the discretization-tolerance cross-check of the store's
  // oracle design.
  const Series series = RandomLeaves(29, 32);
  const SegmentTree tree = BuildTree(series);
  const double lo = series.leaves.front().lo;
  const double hi = series.leaves.back().hi;
  const RangeAggregate agg = tree.Query(lo, hi, series.poly_of());

  const double dt = 1e-4;
  double riemann = 0.0;
  double sample_min = std::numeric_limits<double>::infinity();
  double sample_max = -std::numeric_limits<double>::infinity();
  for (const auto& leaf : series.leaves) {
    const size_t steps =
        static_cast<size_t>(std::ceil((leaf.hi - leaf.lo) / dt));
    for (size_t s = 0; s < steps; ++s) {
      const double a = leaf.lo + static_cast<double>(s) * dt;
      const double b = std::min(a + dt, leaf.hi);
      const double mid = 0.5 * (a + b);
      const double v = series.polys[leaf.ref].Evaluate(mid);
      riemann += v * (b - a);
      sample_min = std::min(sample_min, v);
      sample_max = std::max(sample_max, v);
    }
  }
  EXPECT_NEAR(agg.integral, riemann, 1e-4 * std::max(1.0, std::fabs(riemann)));
  // Sampling can only miss extrema, never exceed them.
  EXPECT_GE(sample_min, agg.min - 1e-12);
  EXPECT_LE(sample_max, agg.max + 1e-12);
  EXPECT_NEAR(sample_min, agg.min, 1e-3 * std::max(1.0, std::fabs(agg.min)));
  EXPECT_NEAR(sample_max, agg.max, 1e-3 * std::max(1.0, std::fabs(agg.max)));
}

TEST(SegmentTree, ZeroLengthQueryIsPointLookup) {
  Series series;
  series.Add(0.0, 2.0, Polynomial({1.0, 1.0}));
  series.Add(2.0, 4.0, Polynomial({10.0}));
  const SegmentTree tree = BuildTree(series);
  // t = 1 inside the first leaf: point value 2, no coverage.
  RangeAggregate agg = tree.Query(1.0, 1.0, series.poly_of());
  EXPECT_EQ(agg.count, 1u);
  EXPECT_EQ(agg.min, 2.0);
  EXPECT_EQ(agg.max, 2.0);
  EXPECT_EQ(agg.coverage, 0.0);
  // t = 2 sits on the shared boundary: the closed query touches the
  // leaf owning [2, 4) only ([0, 2) ends there).
  agg = tree.Query(2.0, 2.0, series.poly_of());
  EXPECT_EQ(agg.count, 1u);
  EXPECT_EQ(agg.min, 10.0);
  EXPECT_EQ(agg.max, 10.0);
}

}  // namespace
}  // namespace store
}  // namespace pulse
