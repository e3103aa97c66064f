#include "engine/aggregate.h"

#include <cmath>

#include <gtest/gtest.h>

#include "engine/group_by.h"

namespace pulse {
namespace {

std::shared_ptr<const Schema> ValueSchema() {
  return Schema::Make(
      {{"id", ValueType::kInt64}, {"v", ValueType::kDouble}});
}

Tuple VTuple(double ts, int64_t id, double v) {
  return Tuple(ts, {Value(id), Value(v)});
}

TEST(AggState, UpdateAndFinalize) {
  AggState s;
  s.Update(3.0);
  s.Update(1.0);
  s.Update(2.0);
  EXPECT_DOUBLE_EQ(s.Finalize(AggFn::kMin), 1.0);
  EXPECT_DOUBLE_EQ(s.Finalize(AggFn::kMax), 3.0);
  EXPECT_DOUBLE_EQ(s.Finalize(AggFn::kSum), 6.0);
  EXPECT_DOUBLE_EQ(s.Finalize(AggFn::kAvg), 2.0);
  EXPECT_DOUBLE_EQ(s.Finalize(AggFn::kCount), 3.0);
}

TEST(AggState, EmptyAvgIsNan) {
  AggState s;
  EXPECT_TRUE(std::isnan(s.Finalize(AggFn::kAvg)));
  EXPECT_DOUBLE_EQ(s.Finalize(AggFn::kCount), 0.0);
}

TEST(WindowedAggregate, TumblingWindowSums) {
  // size == slide: tumbling windows [0,2), [2,4), ...
  WindowedAggregate agg("a", ValueSchema(), WindowSpec{2.0, 2.0},
                        AggFn::kSum, 1);
  std::vector<Tuple> out;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(agg.Process(0, VTuple(i * 0.5, 1, 1.0), &out).ok());
  }
  ASSERT_TRUE(agg.Flush(&out).ok());
  // 8 tuples at 0.5s spacing: windows [0,2) and [2,4) hold 4 each.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].at(0).as_double(), 4.0);
  EXPECT_DOUBLE_EQ(out[0].timestamp, 2.0);
  EXPECT_DOUBLE_EQ(out[1].at(0).as_double(), 4.0);
}

TEST(WindowedAggregate, SlidingWindowsOverlap) {
  // size 4, slide 1: steady state has 4 open windows per tuple.
  WindowedAggregate agg("a", ValueSchema(), WindowSpec{4.0, 1.0},
                        AggFn::kCount, 1);
  std::vector<Tuple> out;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(agg.Process(0, VTuple(i * 0.1, 1, 1.0), &out).ok());
  }
  EXPECT_EQ(agg.open_windows(), 4u);
}

TEST(WindowedAggregate, MinOverSlidingWindow) {
  WindowedAggregate agg("a", ValueSchema(), WindowSpec{2.0, 1.0},
                        AggFn::kMin, 1);
  std::vector<Tuple> out;
  // Values dip to 0.5 at t in [2, 3).
  for (int i = 0; i < 60; ++i) {
    const double t = i * 0.1;
    const double v = (t >= 2.0 && t < 3.0) ? 0.5 : 2.0;
    ASSERT_TRUE(agg.Process(0, VTuple(t, 1, v), &out).ok());
  }
  ASSERT_TRUE(agg.Flush(&out).ok());
  bool saw_dip = false;
  for (const Tuple& t : out) {
    // Windows covering [2,3) must report 0.5.
    if (t.timestamp > 3.0 && t.timestamp <= 4.0) {
      EXPECT_DOUBLE_EQ(t.at(0).as_double(), 0.5);
      saw_dip = true;
    }
  }
  EXPECT_TRUE(saw_dip);
}

TEST(WindowedAggregate, PerTupleCostLinearInWindowCount) {
  // The paper's Fig. 7i driver: state increments per tuple == open
  // windows == size/slide.
  auto run = [](double size) {
    WindowedAggregate agg("a", ValueSchema(), WindowSpec{size, 1.0},
                          AggFn::kMin, 1);
    std::vector<Tuple> out;
    for (int i = 0; i < 1000; ++i) {
      EXPECT_TRUE(agg.Process(0, VTuple(i * 0.5, 1, 1.0), &out).ok());
    }
    return agg.metrics().comparisons->value();
  };
  const uint64_t c10 = run(10.0);
  const uint64_t c50 = run(50.0);
  // 5x window -> ~5x state increments (less edge effects).
  EXPECT_GT(c50, 3 * c10);
}

TEST(WindowedAggregate, AdvanceTimeClosesWindows) {
  WindowedAggregate agg("a", ValueSchema(), WindowSpec{1.0, 1.0},
                        AggFn::kSum, 1);
  std::vector<Tuple> out;
  ASSERT_TRUE(agg.Process(0, VTuple(0.0, 1, 5.0), &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(agg.AdvanceTime(10.0, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].at(0).as_double(), 5.0);
}

TEST(WindowedAggregate, EmptyWindowsNotEmitted) {
  WindowedAggregate agg("a", ValueSchema(), WindowSpec{1.0, 1.0},
                        AggFn::kSum, 1);
  std::vector<Tuple> out;
  ASSERT_TRUE(agg.Process(0, VTuple(0.0, 1, 1.0), &out).ok());
  // Long silence then one tuple: intermediate empty windows are skipped.
  ASSERT_TRUE(agg.Process(0, VTuple(10.0, 1, 2.0), &out).ok());
  ASSERT_TRUE(agg.Flush(&out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].at(0).as_double(), 1.0);
  EXPECT_DOUBLE_EQ(out[1].at(0).as_double(), 2.0);
}

TEST(GroupedWindowedAggregate, PerGroupResults) {
  GroupedWindowedAggregate agg("g", ValueSchema(), WindowSpec{2.0, 2.0},
                               AggFn::kAvg, 1, 0);
  std::vector<Tuple> out;
  ASSERT_TRUE(agg.Process(0, VTuple(0.0, 1, 10.0), &out).ok());
  ASSERT_TRUE(agg.Process(0, VTuple(0.5, 2, 20.0), &out).ok());
  ASSERT_TRUE(agg.Process(0, VTuple(1.0, 1, 30.0), &out).ok());
  ASSERT_TRUE(agg.Flush(&out).ok());
  ASSERT_EQ(out.size(), 2u);
  // Ordered by group key (std::map).
  EXPECT_EQ(out[0].at(0).as_int64(), 1);
  EXPECT_DOUBLE_EQ(out[0].at(1).as_double(), 20.0);
  EXPECT_EQ(out[1].at(0).as_int64(), 2);
  EXPECT_DOUBLE_EQ(out[1].at(1).as_double(), 20.0);
}

TEST(GroupedWindowedAggregate, GroupsAreIndependent) {
  GroupedWindowedAggregate agg("g", ValueSchema(), WindowSpec{1.0, 1.0},
                               AggFn::kMin, 1, 0);
  std::vector<Tuple> out;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        agg.Process(0, VTuple(i * 0.1, i % 2, 100.0 - i), &out).ok());
  }
  ASSERT_TRUE(agg.Flush(&out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].at(1).as_double(), 92.0);  // group 0: min(100,98,..,92)
  EXPECT_DOUBLE_EQ(out[1].at(1).as_double(), 91.0);  // group 1
}

TEST(AggFnToString, Names) {
  EXPECT_STREQ(AggFnToString(AggFn::kMin), "min");
  EXPECT_STREQ(AggFnToString(AggFn::kCount), "count");
}

// Parameterized: every aggregate function over one tumbling window equals
// the brute-force reference.
class AggFnSweep : public ::testing::TestWithParam<AggFn> {};

TEST_P(AggFnSweep, MatchesBruteForce) {
  const AggFn fn = GetParam();
  WindowedAggregate agg("a", ValueSchema(), WindowSpec{10.0, 10.0}, fn, 1);
  std::vector<Tuple> out;
  std::vector<double> values;
  for (int i = 0; i < 20; ++i) {
    const double v = std::sin(i * 0.7) * 10.0;
    values.push_back(v);
    ASSERT_TRUE(agg.Process(0, VTuple(i * 0.25, 1, v), &out).ok());
  }
  ASSERT_TRUE(agg.Flush(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  AggState ref;
  for (double v : values) ref.Update(v);
  EXPECT_NEAR(out[0].at(0).as_double(), ref.Finalize(fn), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllFns, AggFnSweep,
                         ::testing::Values(AggFn::kMin, AggFn::kMax,
                                           AggFn::kSum, AggFn::kAvg,
                                           AggFn::kCount));

}  // namespace
}  // namespace pulse
