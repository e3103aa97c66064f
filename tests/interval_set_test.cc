#include "math/interval_set.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

namespace pulse {
namespace {

TEST(Interval, EmptinessRules) {
  EXPECT_TRUE(Interval::Closed(2.0, 1.0).IsEmpty());
  EXPECT_FALSE(Interval::Closed(1.0, 2.0).IsEmpty());
  EXPECT_FALSE(Interval::Point(3.0).IsEmpty());
  EXPECT_TRUE(Interval::Open(1.0, 1.0).IsEmpty());
  EXPECT_TRUE(Interval::ClosedOpen(1.0, 1.0).IsEmpty());
}

TEST(Interval, ContainsHonoursOpenness) {
  const Interval co = Interval::ClosedOpen(0.0, 1.0);
  EXPECT_TRUE(co.Contains(0.0));
  EXPECT_TRUE(co.Contains(0.999));
  EXPECT_FALSE(co.Contains(1.0));
  const Interval oc = Interval::OpenClosed(0.0, 1.0);
  EXPECT_FALSE(oc.Contains(0.0));
  EXPECT_TRUE(oc.Contains(1.0));
  EXPECT_TRUE(Interval::Point(2.0).Contains(2.0));
  EXPECT_FALSE(Interval::Point(2.0).Contains(2.0001));
}

TEST(Interval, IntersectOverlapping) {
  Interval a = Interval::Closed(0.0, 5.0);
  Interval b = Interval::ClosedOpen(3.0, 8.0);
  Interval c = a.Intersect(b);
  EXPECT_EQ(c, Interval::Closed(3.0, 5.0));
}

TEST(Interval, IntersectAtSharedEndpointRespectsFlags) {
  // [0,1) ∩ [1,2) is empty; [0,1] ∩ [1,2) is the point {1}.
  EXPECT_TRUE(Interval::ClosedOpen(0.0, 1.0)
                  .Intersect(Interval::ClosedOpen(1.0, 2.0))
                  .IsEmpty());
  Interval p = Interval::Closed(0.0, 1.0)
                   .Intersect(Interval::ClosedOpen(1.0, 2.0));
  EXPECT_TRUE(p.IsPoint());
  EXPECT_DOUBLE_EQ(p.lo, 1.0);
}

TEST(Interval, LengthAndToString) {
  EXPECT_DOUBLE_EQ(Interval::Closed(1.0, 4.0).Length(), 3.0);
  EXPECT_DOUBLE_EQ(Interval::Point(2.0).Length(), 0.0);
  EXPECT_EQ(Interval::ClosedOpen(0.0, 1.0).ToString(), "[0, 1)");
  EXPECT_EQ(Interval::Point(3.0).ToString(), "{3}");
}

TEST(IntervalSet, NormalizesOverlapsAndAdjacency) {
  IntervalSet s = IntervalSet::FromIntervals(
      {Interval::ClosedOpen(0.0, 2.0), Interval::ClosedOpen(1.0, 3.0),
       Interval::ClosedOpen(3.0, 4.0)});
  // All three merge into [0, 4).
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.intervals()[0], Interval::ClosedOpen(0.0, 4.0));
}

TEST(IntervalSet, DoesNotMergeAcrossUncoveredPoint) {
  // (0,1) and (1,2) leave 1 uncovered: stay separate.
  IntervalSet s = IntervalSet::FromIntervals(
      {Interval::Open(0.0, 1.0), Interval::Open(1.0, 2.0)});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_FALSE(s.Contains(1.0));
  // Adding the point {1} glues everything together.
  s.Add(Interval::Point(1.0));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Contains(1.0));
}

TEST(IntervalSet, UnionAndIntersection) {
  IntervalSet a(Interval::Closed(0.0, 2.0));
  IntervalSet b = IntervalSet::FromIntervals(
      {Interval::Closed(1.0, 3.0), Interval::Closed(5.0, 6.0)});
  IntervalSet u = a.Union(b);
  EXPECT_EQ(u.size(), 2u);
  EXPECT_DOUBLE_EQ(u.TotalLength(), 4.0);
  IntervalSet i = a.Intersect(b);
  ASSERT_EQ(i.size(), 1u);
  EXPECT_EQ(i.intervals()[0], Interval::Closed(1.0, 2.0));
}

TEST(IntervalSet, IntersectionWithPoints) {
  IntervalSet a(Interval::Closed(0.0, 2.0));
  IntervalSet pts = IntervalSet::FromIntervals(
      {Interval::Point(1.0), Interval::Point(5.0)});
  IntervalSet i = a.Intersect(pts);
  ASSERT_EQ(i.size(), 1u);
  EXPECT_TRUE(i.Contains(1.0));
  EXPECT_FALSE(i.Contains(5.0));
}

TEST(IntervalSet, ComplementWithinDomain) {
  IntervalSet s = IntervalSet::FromIntervals(
      {Interval::ClosedOpen(1.0, 2.0), Interval::ClosedOpen(3.0, 4.0)});
  IntervalSet c = s.Complement(Interval::ClosedOpen(0.0, 5.0));
  // Expect [0,1), [2,3), [4,5).
  ASSERT_EQ(c.size(), 3u);
  EXPECT_TRUE(c.Contains(0.5));
  EXPECT_TRUE(c.Contains(2.5));
  EXPECT_TRUE(c.Contains(4.5));
  EXPECT_FALSE(c.Contains(1.5));
  EXPECT_FALSE(c.Contains(3.5));
  // Double complement restores the clipped set.
  EXPECT_EQ(c.Complement(Interval::ClosedOpen(0.0, 5.0)), s);
}

TEST(IntervalSet, ComplementOfEmptyIsDomain) {
  IntervalSet empty;
  IntervalSet c = empty.Complement(Interval::Closed(1.0, 2.0));
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.intervals()[0], Interval::Closed(1.0, 2.0));
}

TEST(IntervalSet, ComplementFlipsEndpointOpenness) {
  IntervalSet s(Interval::Open(1.0, 2.0));
  IntervalSet c = s.Complement(Interval::Closed(0.0, 3.0));
  // [0,1] and [2,3]: the boundary points 1 and 2 belong to the complement.
  EXPECT_TRUE(c.Contains(1.0));
  EXPECT_TRUE(c.Contains(2.0));
  EXPECT_FALSE(c.Contains(1.5));
}

TEST(IntervalSet, Difference) {
  IntervalSet a(Interval::Closed(0.0, 10.0));
  IntervalSet b(Interval::Open(2.0, 4.0));
  IntervalSet d = a.Difference(b);
  EXPECT_TRUE(d.Contains(2.0));
  EXPECT_FALSE(d.Contains(3.0));
  EXPECT_TRUE(d.Contains(4.0));
  EXPECT_NEAR(d.TotalLength(), 8.0, 1e-12);
}

TEST(IntervalSet, MinMaxAndContains) {
  IntervalSet s = IntervalSet::FromIntervals(
      {Interval::Closed(5.0, 6.0), Interval::Closed(1.0, 2.0)});
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 6.0);
  EXPECT_TRUE(s.Contains(5.5));
  EXPECT_FALSE(s.Contains(3.0));
}

TEST(IntervalSet, AllContainsEverything) {
  IntervalSet all = IntervalSet::All();
  EXPECT_TRUE(all.Contains(-1e300));
  EXPECT_TRUE(all.Contains(0.0));
  EXPECT_TRUE(all.Contains(1e300));
}

TEST(IntervalSet, EmptyIntervalsIgnored) {
  IntervalSet s;
  s.Add(Interval::ClosedOpen(1.0, 1.0));
  EXPECT_TRUE(s.IsEmpty());
}

// Property sweep: union/intersection against brute-force membership on a
// grid of probe points. Each case prints as its name: gtest's default
// printer would dump the vectors' heap pointers, which differ between runs
// and end up in the discovered ctest names.
struct SetPair {
  std::string name;
  std::vector<Interval> a;
  std::vector<Interval> b;
};

void PrintTo(const SetPair& p, std::ostream* os) { *os << p.name; }

class IntervalSetAlgebra : public ::testing::TestWithParam<SetPair> {};

TEST_P(IntervalSetAlgebra, MatchesPointwiseSemantics) {
  const SetPair& p = GetParam();
  IntervalSet a = IntervalSet::FromIntervals(p.a);
  IntervalSet b = IntervalSet::FromIntervals(p.b);
  IntervalSet u = a.Union(b);
  IntervalSet i = a.Intersect(b);
  IntervalSet d = a.Difference(b);
  for (double t = -1.0; t <= 11.0; t += 0.125) {
    const bool in_a = a.Contains(t);
    const bool in_b = b.Contains(t);
    EXPECT_EQ(u.Contains(t), in_a || in_b) << "union at " << t;
    EXPECT_EQ(i.Contains(t), in_a && in_b) << "intersect at " << t;
    EXPECT_EQ(d.Contains(t), in_a && !in_b) << "difference at " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, IntervalSetAlgebra,
    ::testing::Values(
        SetPair{"Overlapping",
                {Interval::Closed(0.0, 5.0)},
                {Interval::Closed(2.0, 7.0)}},
        SetPair{"SpansGap",
                {Interval::ClosedOpen(0.0, 2.0),
                 Interval::ClosedOpen(4.0, 6.0)},
                {Interval::ClosedOpen(1.0, 5.0)}},
        SetPair{"InteriorPoints",
                {Interval::Open(0.0, 10.0)},
                {Interval::Point(3.0), Interval::Point(5.0)}},
        SetPair{"MixedEndpoints",
                {Interval::Closed(0.0, 1.0), Interval::Closed(2.0, 3.0),
                 Interval::Closed(4.0, 5.0)},
                {Interval::OpenClosed(0.5, 2.5),
                 Interval::ClosedOpen(4.5, 9.0)}},
        SetPair{"EmptyLeft", {}, {Interval::Closed(1.0, 2.0)}},
        SetPair{"EmptyRight", {Interval::Closed(1.0, 2.0)}, {}}));

}  // namespace
}  // namespace pulse
