#include <gtest/gtest.h>

#include "engine/filter.h"
#include "engine/join.h"
#include "engine/map.h"
#include "engine/schema.h"
#include "engine/stream.h"
#include "engine/tuple.h"
#include "engine/value.h"

namespace pulse {
namespace {

std::shared_ptr<const Schema> XySchema() {
  return Schema::Make({{"id", ValueType::kInt64},
                       {"x", ValueType::kDouble},
                       {"y", ValueType::kDouble}});
}

Tuple XyTuple(double ts, int64_t id, double x, double y) {
  return Tuple(ts, {Value(id), Value(x), Value(y)});
}

TEST(Value, TypesAndCoercion) {
  Value i(int64_t{3});
  EXPECT_TRUE(i.is_int64());
  EXPECT_DOUBLE_EQ(i.as_double(), 3.0);
  Value d(2.5);
  EXPECT_TRUE(d.is_double());
  Value s("hello");
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(s.ToString(), "hello");
  EXPECT_EQ(Value(int64_t{3}).ToString(), "3");
}

TEST(Value, ComparisonAcrossNumericTypes) {
  EXPECT_TRUE(Value(int64_t{2}) < Value(2.5));
  EXPECT_FALSE(Value(3.0) < Value(int64_t{2}));
  EXPECT_TRUE(Value("a") < Value("b"));
  EXPECT_EQ(Value(1.5), Value(1.5));
  EXPECT_NE(Value(1.5), Value(2.5));
}

TEST(Schema, LookupAndConcat) {
  auto s = XySchema();
  EXPECT_EQ(s->num_fields(), 3u);
  Result<size_t> idx = s->IndexOf("x");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_FALSE(s->IndexOf("zzz").ok());
  auto joined = Schema::Concat(*s, *s, "l.", "r.");
  EXPECT_EQ(joined->num_fields(), 6u);
  EXPECT_TRUE(joined->HasField("l.x"));
  EXPECT_TRUE(joined->HasField("r.y"));
}

TEST(Tuple, ConcatTakesLaterTimestamp) {
  Tuple a = XyTuple(1.0, 1, 2.0, 3.0);
  Tuple b = XyTuple(5.0, 2, 4.0, 5.0);
  Tuple c = Tuple::Concat(a, b);
  EXPECT_DOUBLE_EQ(c.timestamp, 5.0);
  EXPECT_EQ(c.values.size(), 6u);
  EXPECT_EQ(c.at(3).as_int64(), 2);
}

TEST(Stream, PushPopAndCapacity) {
  Stream s("s", XySchema(), 2);
  EXPECT_TRUE(s.Push(XyTuple(0, 1, 0, 0)).ok());
  EXPECT_TRUE(s.Push(XyTuple(1, 2, 0, 0)).ok());
  Status st = s.Push(XyTuple(2, 3, 0, 0));
  EXPECT_EQ(st.code(), StatusCode::kCapacity);
  Tuple t;
  EXPECT_TRUE(s.Pop(&t));
  EXPECT_EQ(t.at(0).as_int64(), 1);
  EXPECT_EQ(s.high_watermark(), 2u);
}

TEST(ComparisonFilter, ConjunctionSemantics) {
  // x > 1 AND y < 5.
  std::vector<FieldComparison> pred = {
      {1, CmpOp::kGt, Comparand::Const(Value(1.0))},
      {2, CmpOp::kLt, Comparand::Const(Value(5.0))}};
  ComparisonFilter f("f", XySchema(), pred);
  std::vector<Tuple> out;
  ASSERT_TRUE(f.Process(0, XyTuple(0, 1, 2.0, 3.0), &out).ok());
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  ASSERT_TRUE(f.Process(0, XyTuple(0, 1, 0.5, 3.0), &out).ok());
  EXPECT_TRUE(out.empty());
  out.clear();
  ASSERT_TRUE(f.Process(0, XyTuple(0, 1, 2.0, 7.0), &out).ok());
  EXPECT_TRUE(out.empty());
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(f.metrics().tuples_in->value(), 3u);
    EXPECT_EQ(f.metrics().tuples_out->value(), 1u);
  }
}

TEST(ComparisonFilter, FieldToFieldComparison) {
  std::vector<FieldComparison> pred = {
      {1, CmpOp::kEq, Comparand::FieldRef(2)}};
  ComparisonFilter f("f", XySchema(), pred);
  std::vector<Tuple> out;
  ASSERT_TRUE(f.Process(0, XyTuple(0, 1, 4.0, 4.0), &out).ok());
  EXPECT_EQ(out.size(), 1u);
  ASSERT_TRUE(f.Process(0, XyTuple(0, 1, 4.0, 5.0), &out).ok());
  EXPECT_EQ(out.size(), 1u);
}

TEST(EvaluateComparison, AllOperators) {
  Tuple t = XyTuple(0, 1, 2.0, 2.0);
  auto cmp = [&](CmpOp op, double rhs) {
    return EvaluateComparison(
        t, FieldComparison{1, op, Comparand::Const(Value(rhs))});
  };
  EXPECT_TRUE(cmp(CmpOp::kLt, 3.0));
  EXPECT_FALSE(cmp(CmpOp::kLt, 2.0));
  EXPECT_TRUE(cmp(CmpOp::kLe, 2.0));
  EXPECT_TRUE(cmp(CmpOp::kEq, 2.0));
  EXPECT_TRUE(cmp(CmpOp::kNe, 2.5));
  EXPECT_TRUE(cmp(CmpOp::kGe, 2.0));
  EXPECT_FALSE(cmp(CmpOp::kGt, 2.0));
}

TEST(LambdaFilter, ArbitraryPredicate) {
  LambdaFilter f("f", XySchema(), [](const Tuple& t) {
    return t.at(1).as_double() + t.at(2).as_double() > 5.0;
  });
  std::vector<Tuple> out;
  ASSERT_TRUE(f.Process(0, XyTuple(0, 1, 3.0, 3.0), &out).ok());
  ASSERT_TRUE(f.Process(0, XyTuple(0, 1, 1.0, 1.0), &out).ok());
  EXPECT_EQ(out.size(), 1u);
}

TEST(MapOperator, ProjectionAndComputedColumns) {
  auto schema = XySchema();
  std::vector<MapColumn> cols;
  cols.push_back(MapColumn::FieldExpr({"id", ValueType::kInt64}, 0));
  cols.push_back(MapColumn{{"sum", ValueType::kDouble}, [](const Tuple& t) {
                             return Value(t.at(1).as_double() +
                                          t.at(2).as_double());
                           }});
  MapOperator m("m", cols);
  EXPECT_EQ(m.output_schema()->num_fields(), 2u);
  std::vector<Tuple> out;
  ASSERT_TRUE(m.Process(0, XyTuple(3.0, 7, 1.5, 2.5), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].timestamp, 3.0);
  EXPECT_EQ(out[0].at(0).as_int64(), 7);
  EXPECT_DOUBLE_EQ(out[0].at(1).as_double(), 4.0);
}

TEST(SlidingWindowJoin, MatchesWithinWindowOnly) {
  auto schema = XySchema();
  SlidingWindowJoin j("j", schema, schema, /*window=*/1.0,
                      {JoinComparison{0, CmpOp::kEq, 0}});
  std::vector<Tuple> out;
  ASSERT_TRUE(j.Process(0, XyTuple(0.0, 1, 0, 0), &out).ok());
  EXPECT_TRUE(out.empty());
  // Same key within the window: match.
  ASSERT_TRUE(j.Process(1, XyTuple(0.5, 1, 9, 9), &out).ok());
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].values.size(), 6u);
  // Outside the window: the left tuple at t=0 has expired by t=2.5.
  out.clear();
  ASSERT_TRUE(j.Process(1, XyTuple(2.5, 1, 9, 9), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(SlidingWindowJoin, ExtraPredicateAndComparisonCount) {
  auto schema = XySchema();
  SlidingWindowJoin j(
      "j", schema, schema, 10.0, {},
      [](const Tuple& l, const Tuple& r) {
        return l.at(0).as_int64() != r.at(0).as_int64();
      });
  std::vector<Tuple> out;
  ASSERT_TRUE(j.Process(0, XyTuple(0.0, 1, 0, 0), &out).ok());
  ASSERT_TRUE(j.Process(0, XyTuple(0.1, 2, 0, 0), &out).ok());
  ASSERT_TRUE(j.Process(1, XyTuple(0.2, 1, 0, 0), &out).ok());
  // Probes both left tuples, matches only the distinct-id one.
  EXPECT_EQ(out.size(), 1u);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(j.metrics().comparisons->value(), 2u);
  }
}

TEST(SlidingWindowJoin, QuadraticComparisonGrowth) {
  // The NL join's defining cost behaviour (paper Fig. 7ii): comparisons
  // grow quadratically with the tuples per window.
  auto schema = XySchema();
  auto run = [&](size_t n) {
    SlidingWindowJoin j("j", schema, schema, 1e9, {},
                        [](const Tuple&, const Tuple&) { return false; });
    std::vector<Tuple> out;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(j.Process(0, XyTuple(i * 0.001, 1, 0, 0), &out).ok());
      EXPECT_TRUE(j.Process(1, XyTuple(i * 0.001, 2, 0, 0), &out).ok());
    }
    return j.metrics().comparisons->value();
  };
  const uint64_t c100 = run(100);
  const uint64_t c200 = run(200);
  // Doubling input roughly quadruples comparisons.
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_GT(c200, 3 * c100);
  }
}

}  // namespace
}  // namespace pulse
