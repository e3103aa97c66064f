#include <cmath>

#include <gtest/gtest.h>

#include "core/operators/aggregate.h"
#include "core/operators/group_by.h"
#include "core/operators/map.h"

namespace pulse {
namespace {

Segment Seg(Key key, double lo, double hi,
            std::vector<std::pair<std::string, Polynomial>> attrs) {
  Segment s(key, Interval::ClosedOpen(lo, hi));
  s.id = NextSegmentId();
  for (auto& [name, poly] : attrs) s.set_attribute(name, poly);
  return s;
}

TEST(ComputedAttr, DifferencePolynomialAndValues) {
  ComputedAttr diff = ComputedAttr::Difference("d", AttrRef::Left("a"),
                                               AttrRef::Left("b"));
  AttrResolver polys = [](const AttrRef& ref) -> Result<Polynomial> {
    return ref.name == "a" ? Polynomial({5.0, 1.0}) : Polynomial({2.0});
  };
  Result<Polynomial> p = diff.BuildPolynomial(polys);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(p->Evaluate(1.0), 4.0, 1e-12);
  Predicate::ValueResolver values = [](const AttrRef& ref) -> Result<double> {
    return ref.name == "a" ? 5.0 : 2.0;
  };
  Result<double> v = diff.EvaluateValues(values);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 3.0);
}

TEST(ComputedAttr, Distance2Forms) {
  ComputedAttr d2 = ComputedAttr::Distance2(
      "dist2", AttrRef::Left("x1"), AttrRef::Left("y1"),
      AttrRef::Left("x2"), AttrRef::Left("y2"));
  Predicate::ValueResolver values = [](const AttrRef& ref) -> Result<double> {
    if (ref.name == "x1") return 0.0;
    if (ref.name == "y1") return 0.0;
    if (ref.name == "x2") return 3.0;
    return 4.0;
  };
  Result<double> v = d2.EvaluateValues(values);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 25.0);
}

TEST(PulseMap, ComputesDerivedModel) {
  PulseMap m("m", {ComputedAttr::Difference("d", AttrRef::Left("a"),
                                            AttrRef::Left("b"))});
  SegmentBatch out;
  ASSERT_TRUE(m.Process(0,
                        Seg(1, 0.0, 10.0,
                            {{"a", Polynomial({3.0, 1.0})},
                             {"b", Polynomial({1.0})}}),
                        &out)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].has_attribute("d"));
  EXPECT_TRUE(out[0].has_attribute("a"));  // keep_inputs default
  EXPECT_NEAR(out[0].attribute("d")->Evaluate(2.0), 4.0, 1e-12);
}

TEST(PulseMap, DropInputsMode) {
  PulseMap m("m",
             {ComputedAttr::Difference("d", AttrRef::Left("a"),
                                       AttrRef::Left("b"))},
             /*keep_inputs=*/false);
  SegmentBatch out;
  ASSERT_TRUE(m.Process(0,
                        Seg(1, 0.0, 10.0,
                            {{"a", Polynomial({3.0})},
                             {"b", Polynomial({1.0})}}),
                        &out)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].has_attribute("a"));
  EXPECT_TRUE(out[0].has_attribute("d"));
}

TEST(PulseMap, Distance2OnJoinedSegment) {
  PulseMap m("m", {ComputedAttr::Distance2(
                      "dist2", AttrRef::Left("s1.x"), AttrRef::Left("s1.y"),
                      AttrRef::Left("s2.x"), AttrRef::Left("s2.y"))});
  SegmentBatch out;
  ASSERT_TRUE(m.Process(0,
                        Seg(1, 0.0, 10.0,
                            {{"s1.x", Polynomial({0.0, 1.0})},
                             {"s1.y", Polynomial()},
                             {"s2.x", Polynomial({10.0, -1.0})},
                             {"s2.y", Polynomial()}}),
                        &out)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  // dist2(t) = (2t - 10)^2.
  EXPECT_NEAR(out[0].attribute("dist2")->Evaluate(5.0), 0.0, 1e-9);
  EXPECT_NEAR(out[0].attribute("dist2")->Evaluate(7.0), 16.0, 1e-9);
}

TEST(PulseMap, InvertBoundSplitsDifference) {
  PulseMap m("m", {ComputedAttr::Difference("d", AttrRef::Left("a"),
                                            AttrRef::Left("b"))});
  SegmentBatch out;
  ASSERT_TRUE(m.Process(0,
                        Seg(4, 0.0, 10.0,
                            {{"a", Polynomial({3.0, 1.0})},
                             {"b", Polynomial({1.0})}}),
                        &out)
                  .ok());
  EquiSplit split;
  Result<std::vector<AllocatedBound>> allocs =
      m.InvertBound(out[0], "d", 0.2, split);
  ASSERT_TRUE(allocs.ok());
  // Two dependencies, each at margin * 1/2 (Lipschitz share).
  ASSERT_EQ(allocs->size(), 2u);
  double total = 0.0;
  for (const AllocatedBound& ab : *allocs) total += ab.margin;
  EXPECT_NEAR(total, 0.2, 1e-12);
}

TEST(PulseMap, InvertBoundPassthroughAttribute) {
  PulseMap m("m", {ComputedAttr::Difference("d", AttrRef::Left("a"),
                                            AttrRef::Left("b"))});
  SegmentBatch out;
  ASSERT_TRUE(m.Process(0,
                        Seg(4, 0.0, 10.0,
                            {{"a", Polynomial({3.0})},
                             {"b", Polynomial({1.0})}}),
                        &out)
                  .ok());
  EquiSplit split;
  // "a" is not a computed output: passthrough identity.
  Result<std::vector<AllocatedBound>> allocs =
      m.InvertBound(out[0], "a", 0.3, split);
  ASSERT_TRUE(allocs.ok());
  ASSERT_EQ(allocs->size(), 1u);
  EXPECT_EQ((*allocs)[0].attribute, "a");
  EXPECT_NEAR((*allocs)[0].margin, 0.3, 1e-12);
}

PulseGroupBy::InnerFactory MinFactory(double window = 100.0) {
  return [window](Key) -> Result<std::unique_ptr<PulseOperator>> {
    PulseAggregateOptions o;
    o.fn = AggFn::kMin;
    // Move-assigned from a std::string: GCC 12 at -O3 flags assigning a
    // literal to an empty string here with a spurious -Wrestrict.
    o.input_attribute = std::string("v");
    o.window_seconds = window;
    return MakePulseAggregate("inner", o);
  };
}

TEST(PulseGroupBy, RoutesByKeyAndRekeysOutput) {
  PulseGroupBy g("g", MinFactory());
  SegmentBatch out;
  Segment a = Seg(1, 0.0, 10.0, {{"v", Polynomial({5.0})}});
  Segment b = Seg(2, 0.0, 10.0, {{"v", Polynomial({3.0})}});
  ASSERT_TRUE(g.Process(0, a, &out).ok());
  ASSERT_TRUE(g.Process(0, b, &out).ok());
  ASSERT_TRUE(g.Flush(&out).ok());
  ASSERT_EQ(out.size(), 2u);
  // Each group has its own envelope: key 2's constant 3 does not displace
  // key 1's constant 5.
  EXPECT_EQ(out[0].key, 1);
  EXPECT_DOUBLE_EQ(out[0].attribute("agg")->Evaluate(1.0), 5.0);
  EXPECT_EQ(out[1].key, 2);
  EXPECT_DOUBLE_EQ(out[1].attribute("agg")->Evaluate(1.0), 3.0);
  EXPECT_EQ(g.num_groups(), 2u);
}

TEST(PulseGroupBy, GroupStateIsolated) {
  PulseGroupBy g("g", MinFactory());
  SegmentBatch out;
  ASSERT_TRUE(
      g.Process(0, Seg(1, 0.0, 10.0, {{"v", Polynomial({5.0})}}), &out)
          .ok());
  // Higher value in the SAME group: the envelope keeps 5.
  ASSERT_TRUE(
      g.Process(0, Seg(1, 0.0, 10.0, {{"v", Polynomial({9.0})}}), &out)
          .ok());
  // Same value in a DIFFERENT group: fresh envelope of its own.
  ASSERT_TRUE(
      g.Process(0, Seg(2, 0.0, 10.0, {{"v", Polynomial({9.0})}}), &out)
          .ok());
  ASSERT_TRUE(g.Flush(&out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 1);
  EXPECT_DOUBLE_EQ(out[0].attribute("agg")->Evaluate(1.0), 5.0);
  EXPECT_EQ(out[1].key, 2);
  EXPECT_DOUBLE_EQ(out[1].attribute("agg")->Evaluate(1.0), 9.0);
}

TEST(PulseGroupBy, InvertBoundDelegates) {
  PulseGroupBy g("g", MinFactory());
  SegmentBatch out;
  ASSERT_TRUE(
      g.Process(0, Seg(5, 0.0, 10.0, {{"v", Polynomial({5.0})}}), &out)
          .ok());
  ASSERT_TRUE(g.Flush(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EquiSplit split;
  Result<std::vector<AllocatedBound>> allocs =
      g.InvertBound(out[0], "agg", 0.5, split);
  ASSERT_TRUE(allocs.ok());
  ASSERT_EQ(allocs->size(), 1u);
  EXPECT_EQ((*allocs)[0].key, 5);
  // Unknown group.
  Segment fake(99, Interval::ClosedOpen(0.0, 1.0));
  fake.id = 424242;
  EXPECT_FALSE(g.InvertBound(fake, "agg", 0.5, split).ok());
}

// Flush walks the groups in ascending key order and appends each
// group's tail after whatever `out` already holds, stamped with the
// group's key. A min aggregate holds its envelope pieces until later
// input settles them, so every output below comes from Flush.
TEST(PulseGroupBy, FlushEmitsGroupsInAscendingKeyOrder) {
  PulseGroupBy g("g", [](Key) -> Result<std::unique_ptr<PulseOperator>> {
    PulseAggregateOptions o;
    o.fn = AggFn::kMin;
    o.input_attribute = std::string("v");
    o.window_seconds = 100.0;
    return MakePulseAggregate("inner", o);
  });
  SegmentBatch processed;
  for (Key key : {7, 2, 5}) {
    // min(5, t) over [0, 10): two envelope pieces, split at t = 5.
    ASSERT_TRUE(
        g.Process(0, Seg(key, 0.0, 10.0, {{"v", Polynomial({5.0})}}),
                  &processed)
            .ok());
    ASSERT_TRUE(
        g.Process(0, Seg(key, 0.0, 10.0, {{"v", Polynomial({0.0, 1.0})}}),
                  &processed)
            .ok());
  }
  EXPECT_TRUE(processed.empty()) << "nothing settles before Flush";

  SegmentBatch out;
  out.push_back(Seg(99, 0.0, 1.0, {{"v", Polynomial({0.0})}}));
  ASSERT_TRUE(g.Flush(&out).ok());
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(out[0].key, 99) << "Flush must not touch earlier outputs";
  const Key expected[] = {2, 2, 5, 5, 7, 7};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(out[i + 1].key, expected[i]) << "output " << i;
  }
  // Each group's pieces: t on [0, 5), then 5 on [5, 10).
  for (size_t i = 1; i < out.size(); i += 2) {
    EXPECT_DOUBLE_EQ(out[i].range.lo, 0.0);
    EXPECT_DOUBLE_EQ(out[i].range.hi, 5.0);
    EXPECT_DOUBLE_EQ(out[i + 1].range.lo, 5.0);
    EXPECT_DOUBLE_EQ(out[i + 1].range.hi, 10.0);
  }
  EXPECT_EQ(g.metrics().segments_out->value(), 6u);
}

TEST(PulseGroupBy, FactoryFailurePropagates) {
  PulseGroupBy g("g", [](Key) -> Result<std::unique_ptr<PulseOperator>> {
    return Status::Unimplemented("nope");
  });
  SegmentBatch out;
  EXPECT_FALSE(
      g.Process(0, Seg(1, 0.0, 1.0, {{"v", Polynomial({1.0})}}), &out)
          .ok());
}

}  // namespace
}  // namespace pulse
