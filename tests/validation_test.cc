#include <cmath>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "core/validation/bounds.h"
#include "core/validation/lineage.h"
#include "core/validation/slack.h"
#include "core/validation/splits.h"

namespace pulse {
namespace {

TEST(BoundSpec, AbsoluteAndRelativeMargins) {
  BoundSpec abs = BoundSpec::Absolute("x", 0.5);
  EXPECT_DOUBLE_EQ(abs.MarginFor(1000.0), 0.5);
  BoundSpec rel = BoundSpec::Relative("x", 0.01);
  EXPECT_DOUBLE_EQ(rel.MarginFor(50.0), 0.5);
  EXPECT_DOUBLE_EQ(rel.MarginFor(-50.0), 0.5);  // magnitude-based
}

TEST(BoundRegistry, SetTightensOnly) {
  BoundRegistry reg;
  reg.Set(1, "x", 0.5);
  reg.Set(1, "x", 0.8);  // looser: ignored
  EXPECT_DOUBLE_EQ(reg.Margin(1, "x"), 0.5);
  reg.Set(1, "x", 0.2);  // tighter: kept
  EXPECT_DOUBLE_EQ(reg.Margin(1, "x"), 0.2);
}

TEST(BoundRegistry, WildcardFallback) {
  BoundRegistry reg;
  reg.Set(BoundRegistry::kAnyKey, "x", 1.0);
  EXPECT_DOUBLE_EQ(reg.Margin(42, "x"), 1.0);
  reg.Set(42, "x", 0.25);
  EXPECT_DOUBLE_EQ(reg.Margin(42, "x"), 0.25);
  EXPECT_DOUBLE_EQ(reg.Margin(43, "x"), 1.0);
  EXPECT_TRUE(std::isinf(reg.Margin(43, "unbounded")));
}

TEST(BoundRegistry, Within) {
  BoundRegistry reg;
  reg.Set(1, "x", 0.5);
  EXPECT_TRUE(reg.Within(1, "x", 10.0, 10.4));
  EXPECT_TRUE(reg.Within(1, "x", 10.0, 9.5));
  EXPECT_FALSE(reg.Within(1, "x", 10.0, 10.6));
  // Unregistered attribute: infinite margin, always within.
  EXPECT_TRUE(reg.Within(1, "zzz", 0.0, 1e12));
}

TEST(LineageStore, RecordLookupExpire) {
  LineageStore store;
  auto in = std::make_shared<Segment>(7, Interval::ClosedOpen(0.0, 1.0));
  in->id = 100;
  store.Record(1, Interval::ClosedOpen(0.0, 1.0), {LineageEntry{0, in}});
  store.Record(2, Interval::ClosedOpen(5.0, 6.0), {LineageEntry{0, in}});
  ASSERT_NE(store.Lookup(1), nullptr);
  EXPECT_EQ(store.Lookup(1)->at(0).input->key, 7);
  EXPECT_EQ(store.Lookup(999), nullptr);
  store.ExpireBefore(3.0);
  EXPECT_EQ(store.Lookup(1), nullptr);
  EXPECT_NE(store.Lookup(2), nullptr);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
}

TEST(NextSegmentId, MonotoneUnique) {
  const uint64_t a = NextSegmentId();
  const uint64_t b = NextSegmentId();
  EXPECT_GT(b, a);
}

SplitContext MakeContext(const Segment* out, double margin,
                         std::vector<const Segment*> inputs,
                         size_t deps = 1) {
  SplitContext ctx;
  ctx.output = out;
  ctx.attribute = "agg";
  ctx.margin = margin;
  ctx.inputs = std::move(inputs);
  // Move-assigned from a std::string: GCC 12 at -O3 flags assigning a
  // literal to an empty string here with a spurious -Wrestrict.
  ctx.input_attribute = std::string("v");
  ctx.num_dependencies = deps;
  return ctx;
}

TEST(EquiSplit, UniformAllocation) {
  Segment out(0, Interval::ClosedOpen(0.0, 1.0));
  Segment in1(1, Interval::ClosedOpen(0.0, 1.0));
  Segment in2(2, Interval::ClosedOpen(0.0, 1.0));
  EquiSplit split;
  Result<std::vector<AllocatedBound>> allocs =
      split.Apportion(MakeContext(&out, 1.0, {&in1, &in2}, 2));
  ASSERT_TRUE(allocs.ok());
  ASSERT_EQ(allocs->size(), 2u);
  // margin / (|inputs| * |deps|) = 1 / 4.
  EXPECT_DOUBLE_EQ((*allocs)[0].margin, 0.25);
  EXPECT_DOUBLE_EQ((*allocs)[1].margin, 0.25);
  EXPECT_EQ((*allocs)[0].key, 1);
  EXPECT_EQ((*allocs)[1].key, 2);
}

TEST(EquiSplit, FailsWithoutInputs) {
  Segment out(0, Interval::ClosedOpen(0.0, 1.0));
  EquiSplit split;
  EXPECT_FALSE(split.Apportion(MakeContext(&out, 1.0, {})).ok());
}

TEST(GradientSplit, WeightsByDerivativeMagnitude) {
  Segment out(0, Interval::ClosedOpen(0.0, 10.0));
  Segment fast(1, Interval::ClosedOpen(0.0, 10.0));
  fast.set_attribute("v", Polynomial({0.0, 3.0}));  // |v'| = 3
  Segment slow(2, Interval::ClosedOpen(0.0, 10.0));
  slow.set_attribute("v", Polynomial({5.0, 1.0}));  // |v'| = 1
  GradientSplit split;
  Result<std::vector<AllocatedBound>> allocs =
      split.Apportion(MakeContext(&out, 1.0, {&fast, &slow}));
  ASSERT_TRUE(allocs.ok());
  ASSERT_EQ(allocs->size(), 2u);
  EXPECT_NEAR((*allocs)[0].margin, 0.75, 1e-9);  // 3 / (3+1)
  EXPECT_NEAR((*allocs)[1].margin, 0.25, 1e-9);
  // Conservative: shares sum to the output margin.
  EXPECT_NEAR((*allocs)[0].margin + (*allocs)[1].margin, 1.0, 1e-9);
}

TEST(GradientSplit, ConstantModelsDegradeToEquiSplit) {
  Segment out(0, Interval::ClosedOpen(0.0, 10.0));
  Segment a(1, Interval::ClosedOpen(0.0, 10.0));
  a.set_attribute("v", Polynomial({5.0}));
  Segment b(2, Interval::ClosedOpen(0.0, 10.0));
  b.set_attribute("v", Polynomial({7.0}));
  GradientSplit split;
  Result<std::vector<AllocatedBound>> allocs =
      split.Apportion(MakeContext(&out, 1.0, {&a, &b}));
  ASSERT_TRUE(allocs.ok());
  EXPECT_DOUBLE_EQ((*allocs)[0].margin, 0.5);
  EXPECT_DOUBLE_EQ((*allocs)[1].margin, 0.5);
}

TEST(UserSplit, WrapsFunction) {
  UserSplit split("biased", [](const SplitContext& ctx)
                                -> Result<std::vector<AllocatedBound>> {
    std::vector<AllocatedBound> out;
    for (const Segment* s : ctx.inputs) {
      out.push_back(
          AllocatedBound{s->key, ctx.input_attribute, ctx.margin});
    }
    return out;
  });
  EXPECT_EQ(split.name(), "biased");
  Segment out(0, Interval::ClosedOpen(0.0, 1.0));
  Segment in(3, Interval::ClosedOpen(0.0, 1.0));
  Result<std::vector<AllocatedBound>> allocs =
      split.Apportion(MakeContext(&out, 0.7, {&in}));
  ASSERT_TRUE(allocs.ok());
  EXPECT_DOUBLE_EQ((*allocs)[0].margin, 0.7);
}

TEST(AlternatingValidator, AccuracyModeUsesBounds) {
  BoundRegistry reg;
  reg.Set(1, "x", 0.5);
  AlternatingValidator v(&reg);
  EXPECT_EQ(v.mode(1), ValidationMode::kAccuracy);
  EXPECT_TRUE(v.Validate(1, "x", 10.0, 10.3));
  EXPECT_FALSE(v.Validate(1, "x", 10.0, 11.0));
  EXPECT_EQ(v.accuracy_checks(), 2u);
  EXPECT_EQ(v.violations(), 1u);
}

TEST(AlternatingValidator, SlackModeAfterNullResult) {
  BoundRegistry reg;
  reg.Set(1, "x", 0.1);  // tight accuracy bound
  AlternatingValidator v(&reg);
  v.ObserveResult(1, /*produced_output=*/false, /*slack=*/2.0);
  EXPECT_EQ(v.mode(1), ValidationMode::kSlack);
  EXPECT_DOUBLE_EQ(v.slack(1), 2.0);
  // Deviation 1.5 < slack 2.0: ignored even though it exceeds the
  // accuracy bound (paper Section IV: following a null, inputs are
  // ignored until they exceed the slack range).
  EXPECT_TRUE(v.Validate(1, "x", 10.0, 11.5));
  EXPECT_FALSE(v.Validate(1, "x", 10.0, 12.5));
  EXPECT_EQ(v.slack_checks(), 2u);
}

TEST(AlternatingValidator, FlipsBackToAccuracyOnResult) {
  BoundRegistry reg;
  reg.Set(1, "x", 0.1);
  AlternatingValidator v(&reg);
  v.ObserveResult(1, false, 5.0);
  EXPECT_EQ(v.mode(1), ValidationMode::kSlack);
  v.ObserveResult(1, true, 0.0);
  EXPECT_EQ(v.mode(1), ValidationMode::kAccuracy);
  EXPECT_FALSE(v.Validate(1, "x", 0.0, 1.0));
}

TEST(AlternatingValidator, PerKeyIndependence) {
  BoundRegistry reg;
  AlternatingValidator v(&reg);
  v.ObserveResult(1, false, 1.0);
  EXPECT_EQ(v.mode(1), ValidationMode::kSlack);
  EXPECT_EQ(v.mode(2), ValidationMode::kAccuracy);
}

TEST(AlternatingValidator, ResetCounters) {
  BoundRegistry reg;
  AlternatingValidator v(&reg);
  v.Validate(1, "x", 0.0, 0.0);
  v.ResetCounters();
  EXPECT_EQ(v.accuracy_checks(), 0u);
  EXPECT_EQ(v.violations(), 0u);
}

}  // namespace
}  // namespace pulse
