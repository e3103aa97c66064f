#include "core/operators/filter.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/validation/splits.h"

namespace pulse {
namespace {

Segment LinearSegment(Key key, double lo, double hi, double c0, double c1,
                      const std::string& attr = "x") {
  Segment s(key, Interval::ClosedOpen(lo, hi));
  s.id = NextSegmentId();
  s.set_attribute(attr, Polynomial({c0, c1}));
  return s;
}

Predicate LessThan(const std::string& attr, double c) {
  return Predicate::Comparison(ComparisonTerm::Simple(
      AttrRef::Left(attr), CmpOp::kLt, Operand::Constant(c)));
}

TEST(PulseFilter, PassesMatchingSubrange) {
  // x(t) = t on [0, 10); filter x < 5 -> output valid on [0, 5).
  PulseFilter f("f", LessThan("x", 5.0));
  SegmentBatch out;
  ASSERT_TRUE(f.Process(0, LinearSegment(1, 0.0, 10.0, 0.0, 1.0), &out)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].range.lo, 0.0);
  EXPECT_DOUBLE_EQ(out[0].range.hi, 5.0);
  // Attributes pass through.
  EXPECT_TRUE(out[0].has_attribute("x"));
  EXPECT_EQ(out[0].key, 1);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(f.metrics().segments_in->value(), 1u);
    EXPECT_EQ(f.metrics().segments_out->value(), 1u);
    EXPECT_EQ(f.metrics().solves->value(), 1u);
  }
}

TEST(PulseFilter, NoOutputWhenPredicateNeverHolds) {
  PulseFilter f("f", LessThan("x", -100.0));
  SegmentBatch out;
  ASSERT_TRUE(f.Process(0, LinearSegment(1, 0.0, 10.0, 0.0, 1.0), &out)
                  .ok());
  EXPECT_TRUE(out.empty());
}

TEST(PulseFilter, WholeSegmentWhenAlwaysHolds) {
  PulseFilter f("f", LessThan("x", 100.0));
  SegmentBatch out;
  ASSERT_TRUE(f.Process(0, LinearSegment(1, 2.0, 8.0, 0.0, 1.0), &out)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].range.lo, 2.0);
  EXPECT_DOUBLE_EQ(out[0].range.hi, 8.0);
}

TEST(PulseFilter, EqualityYieldsPointSegment) {
  // Paper Section III-C: equality comparisons reduce temporal validity to
  // a single point.
  Predicate eq = Predicate::Comparison(ComparisonTerm::Simple(
      AttrRef::Left("x"), CmpOp::kEq, Operand::Constant(5.0)));
  PulseFilter f("f", eq);
  SegmentBatch out;
  ASSERT_TRUE(f.Process(0, LinearSegment(1, 0.0, 10.0, 0.0, 1.0), &out)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].range.IsPoint());
  EXPECT_NEAR(out[0].range.lo, 5.0, 1e-9);
}

TEST(PulseFilter, DisjunctionProducesMultipleRanges) {
  Predicate p = Predicate::Or({LessThan("x", 2.0),
                               Predicate::Not(LessThan("x", 8.0))});
  PulseFilter f("f", p);
  SegmentBatch out;
  ASSERT_TRUE(f.Process(0, LinearSegment(1, 0.0, 10.0, 0.0, 1.0), &out)
                  .ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_LT(out[0].range.hi, out[1].range.lo);
}

TEST(PulseFilter, QuadraticPredicate) {
  // x(t) = (t-5)^2: x < 4 on (3, 7).
  Segment s(1, Interval::ClosedOpen(0.0, 10.0));
  s.id = NextSegmentId();
  s.set_attribute("x", Polynomial({25.0, -10.0, 1.0}));
  PulseFilter f("f", LessThan("x", 4.0));
  SegmentBatch out;
  ASSERT_TRUE(f.Process(0, s, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].range.lo, 3.0, 1e-8);
  EXPECT_NEAR(out[0].range.hi, 7.0, 1e-8);
}

TEST(PulseFilter, MissingAttributeFails) {
  PulseFilter f("f", LessThan("zzz", 1.0));
  SegmentBatch out;
  EXPECT_FALSE(
      f.Process(0, LinearSegment(1, 0.0, 1.0, 0.0, 1.0), &out).ok());
}

TEST(PulseFilter, LineageRecordsCause) {
  PulseFilter f("f", LessThan("x", 5.0));
  Segment in = LinearSegment(9, 0.0, 10.0, 0.0, 1.0);
  SegmentBatch out;
  ASSERT_TRUE(f.Process(0, in, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  const std::vector<LineageEntry>* causes = f.lineage().Lookup(out[0].id);
  ASSERT_NE(causes, nullptr);
  ASSERT_EQ(causes->size(), 1u);
  EXPECT_EQ((*causes)[0].input->key, 9);
  EXPECT_EQ((*causes)[0].input->id, in.id);
}

TEST(PulseFilter, ComputeSlackDistanceToFiring) {
  // x(t) = t on [0, 4): predicate x < 5 never fires... it always fires.
  // Use x > 5: difference x - 5 has |min| = 1 at t = 4 (domain edge).
  Predicate gt = Predicate::Comparison(ComparisonTerm::Simple(
      AttrRef::Left("x"), CmpOp::kGt, Operand::Constant(5.0)));
  PulseFilter f("f", gt);
  Result<double> slack =
      f.ComputeSlack(LinearSegment(1, 0.0, 4.0, 0.0, 1.0));
  ASSERT_TRUE(slack.ok());
  EXPECT_NEAR(*slack, 1.0, 1e-9);
}

TEST(PulseFilter, SlackZeroForNonConjunctive) {
  Predicate p = Predicate::Or({LessThan("x", 1.0), LessThan("x", 2.0)});
  PulseFilter f("f", p);
  Result<double> slack =
      f.ComputeSlack(LinearSegment(1, 0.0, 1.0, 10.0, 0.0));
  ASSERT_TRUE(slack.ok());
  EXPECT_DOUBLE_EQ(*slack, 0.0);
}

TEST(PulseFilter, InvertBoundSplitsAcrossDependencies) {
  PulseFilter f("f", LessThan("x", 5.0));
  Segment in = LinearSegment(3, 0.0, 10.0, 0.0, 1.0);
  SegmentBatch out;
  ASSERT_TRUE(f.Process(0, in, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EquiSplit split;
  Result<std::vector<AllocatedBound>> allocs =
      f.InvertBound(out[0], "x", 0.1, split);
  ASSERT_TRUE(allocs.ok());
  // Single dependency set {x}: the full margin lands on input x of key 3.
  ASSERT_EQ(allocs->size(), 1u);
  EXPECT_EQ((*allocs)[0].key, 3);
  EXPECT_EQ((*allocs)[0].attribute, "x");
  EXPECT_NEAR((*allocs)[0].margin, 0.1, 1e-12);
}

TEST(PulseFilter, InvertBoundSeparateInferenceAttribute) {
  // Filter on y, bound requested on x: the margin splits across {x, y}.
  PulseFilter f("f", LessThan("y", 5.0));
  Segment in = LinearSegment(3, 0.0, 10.0, 0.0, 1.0);
  in.set_attribute("y", Polynomial({0.0, 0.5}));
  SegmentBatch out;
  ASSERT_TRUE(f.Process(0, in, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EquiSplit split;
  Result<std::vector<AllocatedBound>> allocs =
      f.InvertBound(out[0], "x", 0.2, split);
  ASSERT_TRUE(allocs.ok());
  ASSERT_EQ(allocs->size(), 2u);
  double total = 0.0;
  for (const AllocatedBound& ab : *allocs) {
    total += ab.margin;
    EXPECT_NEAR(ab.margin, 0.1, 1e-12);
  }
  EXPECT_NEAR(total, 0.2, 1e-12);
}

TEST(PulseFilter, InvertBoundUnknownOutputFails) {
  PulseFilter f("f", LessThan("x", 5.0));
  Segment fake(1, Interval::ClosedOpen(0.0, 1.0));
  fake.id = 999999;
  EquiSplit split;
  EXPECT_FALSE(f.InvertBound(fake, "x", 0.1, split).ok());
}

// Sweep: filter output exactly matches the predicate at sampled times for
// several slopes.
class FilterAgreementSweep : public ::testing::TestWithParam<double> {};

TEST_P(FilterAgreementSweep, OutputRangesMatchPointwiseTruth) {
  const double slope = GetParam();
  PulseFilter f("f", LessThan("x", 3.0));
  Segment in = LinearSegment(1, 0.0, 10.0, -2.0, slope);
  SegmentBatch out;
  ASSERT_TRUE(f.Process(0, in, &out).ok());
  IntervalSet covered;
  for (const Segment& s : out) covered.Add(s.range);
  const Polynomial x = *in.attribute("x");
  for (double t = 0.05; t < 10.0; t += 0.07) {
    EXPECT_EQ(covered.Contains(t), x.Evaluate(t) < 3.0)
        << "slope=" << slope << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Slopes, FilterAgreementSweep,
                         ::testing::Values(-2.0, -0.5, 0.0, 0.4, 1.0, 3.0));

}  // namespace
}  // namespace pulse
