#include "core/operators/join.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace pulse {
namespace {

Segment LinearSegment(Key key, double lo, double hi, double c0, double c1,
                      const std::string& attr = "x") {
  Segment s(key, Interval::ClosedOpen(lo, hi));
  s.id = NextSegmentId();
  s.set_attribute(attr, Polynomial({c0, c1}));
  return s;
}

Predicate CrossPredicate(CmpOp op) {
  // left.x R right.x.
  return Predicate::Comparison(ComparisonTerm::Simple(
      AttrRef::Left("x"), op, Operand::Attribute(AttrRef::Right("x"))));
}

PulseJoinOptions Opts(double window = 100.0) {
  PulseJoinOptions o;
  o.window_seconds = window;
  return o;
}

TEST(CombineKeys, RoundTrip) {
  Key combined = CombineKeys(12345, 67890);
  Key l = 0, r = 0;
  SplitKeys(combined, &l, &r);
  EXPECT_EQ(l, 12345);
  EXPECT_EQ(r, 67890);
}

TEST(PulseJoin, EqualityIntersectionPoint) {
  // left.x = t, right.x = 10 - t: equal at t = 5 (paper's equi-join
  // intersection-point semantics).
  PulseJoin j("j", CrossPredicate(CmpOp::kEq), Opts());
  SegmentBatch out;
  ASSERT_TRUE(
      j.Process(0, LinearSegment(1, 0.0, 10.0, 0.0, 1.0), &out).ok());
  EXPECT_TRUE(out.empty());  // nothing on the other side yet
  ASSERT_TRUE(
      j.Process(1, LinearSegment(2, 0.0, 10.0, 10.0, -1.0), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].range.IsPoint());
  EXPECT_NEAR(out[0].range.lo, 5.0, 1e-9);
  // Joined segment carries both sides' models, prefixed.
  EXPECT_TRUE(out[0].has_attribute("left.x"));
  EXPECT_TRUE(out[0].has_attribute("right.x"));
  EXPECT_EQ(out[0].key, CombineKeys(1, 2));
}

TEST(PulseJoin, InequalityRangeOutput) {
  // left.x < right.x: t < 10 - t -> t < 5.
  PulseJoin j("j", CrossPredicate(CmpOp::kLt), Opts());
  SegmentBatch out;
  ASSERT_TRUE(
      j.Process(0, LinearSegment(1, 0.0, 10.0, 0.0, 1.0), &out).ok());
  ASSERT_TRUE(
      j.Process(1, LinearSegment(2, 0.0, 10.0, 10.0, -1.0), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].range.lo, 0.0);
  EXPECT_NEAR(out[0].range.hi, 5.0, 1e-9);
}

TEST(PulseJoin, OnlyOverlappingSegmentsSolve) {
  // Segments that do not overlap in time never produce output (equi-join
  // along the time dimension).
  PulseJoin j("j", CrossPredicate(CmpOp::kLt), Opts());
  SegmentBatch out;
  ASSERT_TRUE(
      j.Process(0, LinearSegment(1, 0.0, 5.0, 0.0, 0.0), &out).ok());
  ASSERT_TRUE(
      j.Process(1, LinearSegment(2, 5.0, 10.0, 100.0, 0.0), &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(j.metrics().solves->value(), 0u);
}

TEST(PulseJoin, SolutionClippedToOverlap) {
  // Overlap is [4, 6); predicate holds on t < 5: output [4, 5).
  PulseJoin j("j", CrossPredicate(CmpOp::kLt), Opts());
  SegmentBatch out;
  ASSERT_TRUE(
      j.Process(0, LinearSegment(1, 0.0, 6.0, 0.0, 1.0), &out).ok());
  ASSERT_TRUE(
      j.Process(1, LinearSegment(2, 4.0, 10.0, 10.0, -1.0), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].range.lo, 4.0);
  EXPECT_NEAR(out[0].range.hi, 5.0, 1e-9);
}

TEST(PulseJoin, MatchKeysOnlyJoinsSameKey) {
  PulseJoinOptions o = Opts();
  o.match_keys = true;
  PulseJoin j("j", CrossPredicate(CmpOp::kLe), o);
  SegmentBatch out;
  ASSERT_TRUE(
      j.Process(0, LinearSegment(1, 0.0, 10.0, 0.0, 0.0), &out).ok());
  ASSERT_TRUE(
      j.Process(1, LinearSegment(2, 0.0, 10.0, 1.0, 0.0), &out).ok());
  EXPECT_TRUE(out.empty());  // different keys
  ASSERT_TRUE(
      j.Process(1, LinearSegment(1, 0.0, 10.0, 1.0, 0.0), &out).ok());
  EXPECT_EQ(out.size(), 1u);
}

TEST(PulseJoin, DistinctKeysGuardsSelfJoin) {
  PulseJoinOptions o = Opts();
  o.require_distinct_keys = true;
  PulseJoin j("j", CrossPredicate(CmpOp::kLe), o);
  SegmentBatch out;
  ASSERT_TRUE(
      j.Process(0, LinearSegment(7, 0.0, 10.0, 0.0, 0.0), &out).ok());
  ASSERT_TRUE(
      j.Process(1, LinearSegment(7, 0.0, 10.0, 1.0, 0.0), &out).ok());
  EXPECT_TRUE(out.empty());  // same entity
}

TEST(PulseJoin, WindowExpiresOldSegments) {
  PulseJoin j("j", CrossPredicate(CmpOp::kLe), Opts(1.0));
  SegmentBatch out;
  ASSERT_TRUE(
      j.Process(0, LinearSegment(1, 0.0, 0.5, 0.0, 0.0), &out).ok());
  EXPECT_EQ(j.left_buffer_size(), 1u);
  // A much later arrival expires the stale left segment.
  ASSERT_TRUE(
      j.Process(1, LinearSegment(2, 10.0, 10.5, 1.0, 0.0), &out).ok());
  EXPECT_EQ(j.left_buffer_size(), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(PulseJoin, UnmodeledAndKeysCarriedThrough) {
  PulseJoin j("j", CrossPredicate(CmpOp::kLe), Opts());
  Segment l = LinearSegment(3, 0.0, 10.0, 0.0, 0.0);
  l.unmodeled["flag"] = 1.0;
  SegmentBatch out;
  ASSERT_TRUE(j.Process(0, l, &out).ok());
  ASSERT_TRUE(
      j.Process(1, LinearSegment(4, 0.0, 10.0, 1.0, 0.0), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].unmodeled.at("left.flag"), 1.0);
  EXPECT_DOUBLE_EQ(out[0].unmodeled.at("left.key"), 3.0);
  EXPECT_DOUBLE_EQ(out[0].unmodeled.at("right.key"), 4.0);
}

TEST(PulseJoin, LineageRecordsBothSides) {
  PulseJoin j("j", CrossPredicate(CmpOp::kLe), Opts());
  Segment l = LinearSegment(1, 0.0, 10.0, 0.0, 0.0);
  Segment r = LinearSegment(2, 0.0, 10.0, 1.0, 0.0);
  SegmentBatch out;
  ASSERT_TRUE(j.Process(0, l, &out).ok());
  ASSERT_TRUE(j.Process(1, r, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  const std::vector<LineageEntry>* causes = j.lineage().Lookup(out[0].id);
  ASSERT_NE(causes, nullptr);
  ASSERT_EQ(causes->size(), 2u);
  EXPECT_EQ((*causes)[0].port, 0u);
  EXPECT_EQ((*causes)[0].input->id, l.id);
  EXPECT_EQ((*causes)[1].port, 1u);
  EXPECT_EQ((*causes)[1].input->id, r.id);
}

// The join copies an arriving segment once: the stored buffer entry and
// the lineage of every output it joins into share that copy.
TEST(PulseJoin, OutputsShareTheStoredSegment) {
  PulseJoin j("j", CrossPredicate(CmpOp::kLe), Opts());
  SegmentBatch out;
  ASSERT_TRUE(j.Process(0, LinearSegment(1, 0.0, 10.0, 0.0, 0.0), &out).ok());
  ASSERT_TRUE(j.Process(1, LinearSegment(2, 0.0, 5.0, 1.0, 0.0), &out).ok());
  ASSERT_TRUE(j.Process(1, LinearSegment(3, 5.0, 10.0, 1.0, 0.0), &out).ok());
  ASSERT_EQ(out.size(), 2u);
  const std::vector<LineageEntry>* first = j.lineage().Lookup(out[0].id);
  const std::vector<LineageEntry>* second = j.lineage().Lookup(out[1].id);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ((*first)[0].input.get(), (*second)[0].input.get());
  EXPECT_NE((*first)[1].input.get(), (*second)[1].input.get());
}

TEST(PulseJoin, InvertBoundTranslatesPrefixedAttribute) {
  PulseJoin j("j", CrossPredicate(CmpOp::kLe), Opts());
  SegmentBatch out;
  ASSERT_TRUE(
      j.Process(0, LinearSegment(1, 0.0, 10.0, 0.0, 1.0), &out).ok());
  ASSERT_TRUE(
      j.Process(1, LinearSegment(2, 0.0, 10.0, 20.0, -1.0), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EquiSplit split;
  Result<std::vector<AllocatedBound>> allocs =
      j.InvertBound(out[0], "left.x", 0.4, split);
  ASSERT_TRUE(allocs.ok());
  // Dependencies: (0, x) translation and (0, x), (1, x) inferences ->
  // deduped {(0,x), (1,x)}: both sides receive margins summing <= 0.4.
  double total = 0.0;
  bool saw_left = false, saw_right = false;
  for (const AllocatedBound& ab : *allocs) {
    total += ab.margin;
    if (ab.port == 0) saw_left = true;
    if (ab.port == 1) saw_right = true;
    EXPECT_EQ(ab.attribute, "x");
  }
  EXPECT_TRUE(saw_left);
  EXPECT_TRUE(saw_right);
  EXPECT_LE(total, 0.4 + 1e-12);
}

TEST(PulseJoin, InvertBoundRejectsUnprefixedAttribute) {
  PulseJoin j("j", CrossPredicate(CmpOp::kLe), Opts());
  SegmentBatch out;
  ASSERT_TRUE(
      j.Process(0, LinearSegment(1, 0.0, 10.0, 0.0, 0.0), &out).ok());
  ASSERT_TRUE(
      j.Process(1, LinearSegment(2, 0.0, 10.0, 1.0, 0.0), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EquiSplit split;
  EXPECT_FALSE(j.InvertBound(out[0], "x", 0.1, split).ok());
}

TEST(PulseJoin, ComputeSlackNearestPartner) {
  // Stored right segment at constant 3; probing left at constant 1 with
  // predicate left.x = right.x: slack = 2.
  PulseJoin j("j", CrossPredicate(CmpOp::kEq), Opts());
  SegmentBatch out;
  ASSERT_TRUE(
      j.Process(1, LinearSegment(2, 0.0, 10.0, 3.0, 0.0), &out).ok());
  Result<double> slack =
      j.ComputeSlack(0, LinearSegment(1, 0.0, 10.0, 1.0, 0.0));
  ASSERT_TRUE(slack.ok());
  EXPECT_NEAR(*slack, 2.0, 1e-9);
}

TEST(PulseJoin, ComputeSlackInfiniteWithoutPartners) {
  PulseJoin j("j", CrossPredicate(CmpOp::kEq), Opts());
  Result<double> slack =
      j.ComputeSlack(0, LinearSegment(1, 0.0, 10.0, 1.0, 0.0));
  ASSERT_TRUE(slack.ok());
  EXPECT_TRUE(std::isinf(*slack));
}

// Slack enumerates partners exactly as matching does: only stored
// segments that pass the key guards and overlap the probe in time count.
TEST(PulseJoin, ComputeSlackHonorsKeyGuards) {
  const Segment probe = LinearSegment(1, 0.0, 10.0, 1.0, 0.0);
  // Probe at constant 1 against left.x = right.x: a stored constant c
  // gives slack |c - 1|.
  {
    PulseJoinOptions o = Opts();
    o.match_keys = true;
    PulseJoin j("j", CrossPredicate(CmpOp::kEq), o);
    SegmentBatch out;
    ASSERT_TRUE(
        j.Process(1, LinearSegment(1, 0.0, 10.0, 5.0, 0.0), &out).ok());
    ASSERT_TRUE(
        j.Process(1, LinearSegment(2, 0.0, 10.0, 1.5, 0.0), &out).ok());
    ASSERT_TRUE(
        j.Process(1, LinearSegment(1, 20.0, 30.0, 1.0, 0.0), &out).ok());
    Result<double> slack = j.ComputeSlack(0, probe);
    ASSERT_TRUE(slack.ok());
    // Key 2 at distance 0.5 is nearer, and the key-1 segment at 20..30
    // equals the probe, but only the overlapping key-1 partner counts.
    EXPECT_NEAR(*slack, 4.0, 1e-9);
  }
  {
    PulseJoinOptions o = Opts();
    o.require_distinct_keys = true;
    PulseJoin j("j", CrossPredicate(CmpOp::kEq), o);
    SegmentBatch out;
    ASSERT_TRUE(
        j.Process(1, LinearSegment(1, 0.0, 10.0, 1.5, 0.0), &out).ok());
    ASSERT_TRUE(
        j.Process(1, LinearSegment(2, 0.0, 10.0, 4.0, 0.0), &out).ok());
    ASSERT_TRUE(
        j.Process(1, LinearSegment(3, 20.0, 30.0, 1.0, 0.0), &out).ok());
    Result<double> slack = j.ComputeSlack(0, probe);
    ASSERT_TRUE(slack.ok());
    // The same-key partner (0.5 away) and the disjoint key-3 partner are
    // ignored; the overlapping key-2 partner sets the slack.
    EXPECT_NEAR(*slack, 3.0, 1e-9);
  }
}

TEST(PulseJoin, DistanceJoinCollisionQuery) {
  // The paper's motivating collision query: two objects approach and
  // cross within distance c on a computable interval.
  Predicate prox = Predicate::Comparison(ComparisonTerm::Distance2(
      AttrRef::Left("x"), AttrRef::Left("y"), AttrRef::Right("x"),
      AttrRef::Right("y"), CmpOp::kLt, 2.0));
  PulseJoinOptions o = Opts();
  o.require_distinct_keys = true;
  PulseJoin j("j", prox, o);
  // Object 1 moves right along y=0: x = t. Object 2 moves left: x = 10-t.
  Segment a(1, Interval::ClosedOpen(0.0, 10.0));
  a.id = NextSegmentId();
  a.set_attribute("x", Polynomial({0.0, 1.0}));
  a.set_attribute("y", Polynomial());
  Segment b(2, Interval::ClosedOpen(0.0, 10.0));
  b.id = NextSegmentId();
  b.set_attribute("x", Polynomial({10.0, -1.0}));
  b.set_attribute("y", Polynomial());
  SegmentBatch out;
  ASSERT_TRUE(j.Process(0, a, &out).ok());
  ASSERT_TRUE(j.Process(1, b, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  // |2t - 10| < 2 -> t in (4, 6).
  EXPECT_NEAR(out[0].range.lo, 4.0, 1e-8);
  EXPECT_NEAR(out[0].range.hi, 6.0, 1e-8);
}

}  // namespace
}  // namespace pulse
