#include "core/operators/aggregate.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

namespace pulse {
namespace {

Segment LinearSegment(Key key, double lo, double hi, double c0, double c1,
                      const std::string& attr = "v") {
  Segment s(key, Interval::ClosedOpen(lo, hi));
  s.id = NextSegmentId();
  s.set_attribute(attr, Polynomial({c0, c1}));
  return s;
}

PulseAggregateOptions MinOpts(double window = 100.0) {
  PulseAggregateOptions o;
  o.fn = AggFn::kMin;
  // Move-assigned from a std::string: GCC 12 at -O3 flags assigning a
  // literal to an empty string here with a spurious -Wrestrict.
  o.input_attribute = std::string("v");
  o.output_attribute = "agg";
  o.window_seconds = window;
  o.slide_seconds = 1.0;
  return o;
}

PulseAggregateOptions AvgOpts(double window, double slide = 1.0) {
  PulseAggregateOptions o;
  o.fn = AggFn::kAvg;
  o.input_attribute = std::string("v");
  o.output_attribute = "agg";
  o.window_seconds = window;
  o.slide_seconds = slide;
  return o;
}

// Min/max emission is settled and append-only: an envelope piece is
// emitted once later input (range.lo past the piece) settles it, or on
// Flush.

TEST(PulseMinMaxAggregate, FirstSegmentDefinesEnvelope) {
  PulseMinMaxAggregate agg("a", MinOpts());
  SegmentBatch out;
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 0.0, 10.0, 5.0, 0.0), &out).ok());
  EXPECT_TRUE(out.empty()) << "nothing is settled before t = 10";
  ASSERT_TRUE(agg.Flush(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].range.lo, 0.0);
  EXPECT_DOUBLE_EQ(out[0].range.hi, 10.0);
  EXPECT_DOUBLE_EQ(out[0].attribute("agg")->Evaluate(3.0), 5.0);
  EXPECT_EQ(out[0].key, 0);
  EXPECT_DOUBLE_EQ(out[0].unmodeled.at("arg_key"), 1.0);
}

TEST(PulseMinMaxAggregate, HigherCandidateProducesNothing) {
  PulseMinMaxAggregate agg("a", MinOpts());
  SegmentBatch out;
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 0.0, 10.0, 5.0, 0.0), &out).ok());
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(2, 0.0, 10.0, 8.0, 0.0), &out).ok());
  ASSERT_TRUE(agg.Flush(&out).ok());
  // The losing candidate leaves the first piece as it was.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].range.hi, 10.0);
  EXPECT_DOUBLE_EQ(out[0].unmodeled.at("arg_key"), 1.0);
}

TEST(PulseMinMaxAggregate, CrossingCandidateEmitsWinningRange) {
  // Envelope 10 - t; candidate t wins for t < 5.
  PulseMinMaxAggregate agg("a", MinOpts());
  SegmentBatch out;
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 0.0, 10.0, 10.0, -1.0), &out).ok());
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(2, 0.0, 10.0, 0.0, 1.0), &out).ok());
  EXPECT_TRUE(out.empty());
  // Envelope state reflects the pointwise min.
  EXPECT_NEAR(*agg.state().Evaluate(2.0), 2.0, 1e-9);
  EXPECT_NEAR(*agg.state().Evaluate(8.0), 2.0, 1e-9);
  // Later input starting at t = 10 settles both pieces.
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(3, 10.0, 20.0, 100.0, 0.0), &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].range.lo, 0.0);
  EXPECT_NEAR(out[0].range.hi, 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(out[0].unmodeled.at("arg_key"), 2.0);
  EXPECT_NEAR(out[1].range.lo, 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(out[1].range.hi, 10.0);
  EXPECT_DOUBLE_EQ(out[1].unmodeled.at("arg_key"), 1.0);
}

TEST(PulseMinMaxAggregate, MaxAggregateKeepsUpperEnvelope) {
  PulseAggregateOptions o = MinOpts();
  o.fn = AggFn::kMax;
  PulseMinMaxAggregate agg("a", o);
  SegmentBatch out;
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 0.0, 10.0, 0.0, 1.0), &out).ok());
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(2, 0.0, 10.0, 10.0, -1.0), &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(agg.Flush(&out).ok());
  // 10 - t beats t for t < 5.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NEAR(out[0].range.hi, 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(out[0].unmodeled.at("arg_key"), 2.0);
  EXPECT_DOUBLE_EQ(out[1].unmodeled.at("arg_key"), 1.0);
  EXPECT_NEAR(*agg.state().Evaluate(8.0), 8.0, 1e-9);
}

TEST(PulseMinMaxAggregate, WindowExpiresEnvelope) {
  PulseMinMaxAggregate agg("a", MinOpts(2.0));
  SegmentBatch out;
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 0.0, 1.0, 5.0, 0.0), &out).ok());
  // Arrives at t=10 with window 2: it settles the old piece, and since
  // the old envelope is expired the higher candidate owns its full range.
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(2, 10.0, 11.0, 50.0, 0.0), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].range.hi, 1.0);
  ASSERT_TRUE(agg.Flush(&out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[1].range.lo, 10.0);
  EXPECT_DOUBLE_EQ(out[1].range.hi, 11.0);
  EXPECT_DOUBLE_EQ(out[1].attribute("agg")->Evaluate(10.5), 50.0);
}

TEST(PulseMinMaxAggregate, ComputeSlackAgainstEnvelope) {
  PulseMinMaxAggregate agg("a", MinOpts());
  SegmentBatch out;
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 0.0, 10.0, 5.0, 0.0), &out).ok());
  // Candidate at constant 7: distance 2 from updating the min envelope.
  Result<double> slack =
      agg.ComputeSlack(LinearSegment(2, 0.0, 10.0, 7.0, 0.0));
  ASSERT_TRUE(slack.ok());
  EXPECT_NEAR(*slack, 2.0, 1e-9);
}

TEST(PulseMinMaxAggregate, InvertBoundPassesMarginThrough) {
  PulseMinMaxAggregate agg("a", MinOpts());
  SegmentBatch out;
  Segment in = LinearSegment(1, 0.0, 10.0, 5.0, 0.0);
  ASSERT_TRUE(agg.Process(0, in, &out).ok());
  ASSERT_TRUE(agg.Flush(&out).ok());
  ASSERT_EQ(out.size(), 1u);
  EquiSplit split;
  Result<std::vector<AllocatedBound>> allocs =
      agg.InvertBound(out[0], "agg", 0.25, split);
  ASSERT_TRUE(allocs.ok());
  ASSERT_EQ(allocs->size(), 1u);
  EXPECT_EQ((*allocs)[0].key, 1);
  EXPECT_EQ((*allocs)[0].attribute, "v");
  EXPECT_NEAR((*allocs)[0].margin, 0.25, 1e-12);
  EXPECT_FALSE(agg.InvertBound(out[0], "bogus", 0.1, split).ok());
}

TEST(PulseSumAvgAggregate, SingleSegmentWindowFunction) {
  // v(t) = t on [0, 10), window 2: for closes t in [2, 10),
  // avg = (1/2) * integral_{t-2}^{t} u du = t - 1.
  PulseSumAvgAggregate agg("a", AvgOpts(2.0));
  SegmentBatch out;
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 0.0, 10.0, 0.0, 1.0), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].range.lo, 2.0);
  EXPECT_DOUBLE_EQ(out[0].range.hi, 10.0);
  const Polynomial wf = *out[0].attribute("agg");
  for (double t = 2.0; t < 10.0; t += 0.5) {
    EXPECT_NEAR(wf.Evaluate(t), t - 1.0, 1e-9) << t;
  }
}

TEST(PulseSumAvgAggregate, SumIsWindowIntegral) {
  PulseAggregateOptions o = AvgOpts(2.0);
  o.fn = AggFn::kSum;
  PulseSumAvgAggregate agg("a", o);
  SegmentBatch out;
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 0.0, 10.0, 3.0, 0.0), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  // Integral of the constant 3 over a length-2 window = 6.
  EXPECT_NEAR(out[0].attribute("agg")->Evaluate(5.0), 6.0, 1e-9);
}

TEST(PulseSumAvgAggregate, MultiSegmentWindowUsesTailAndHead) {
  // Two pieces: v = 0 on [0,5), v = 10 on [5,10). Window 4.
  // For a close at t in (5, 9): avg = 10 * (t - 5) / 4.
  PulseSumAvgAggregate agg("a", AvgOpts(4.0));
  SegmentBatch out;
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 0.0, 5.0, 0.0, 0.0), &out).ok());
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 5.0, 10.0, 10.0, 0.0), &out).ok());
  // Collect the piecewise window function and check values across pieces.
  auto eval = [&](double t) -> double {
    for (const Segment& s : out) {
      if (s.range.Contains(t)) return s.attribute("agg")->Evaluate(t);
    }
    ADD_FAILURE() << "no window function covers close " << t;
    return std::nan("");
  };
  EXPECT_NEAR(eval(6.0), 10.0 * 1.0 / 4.0, 1e-9);
  EXPECT_NEAR(eval(8.0), 10.0 * 3.0 / 4.0, 1e-9);
  EXPECT_NEAR(eval(9.5), 10.0, 1e-9);  // window fully inside the 10-piece
}

TEST(PulseSumAvgAggregate, WindowFunctionContinuousAcrossBreakpoints) {
  PulseSumAvgAggregate agg("a", AvgOpts(3.0));
  SegmentBatch out;
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 0.0, 4.0, 0.0, 2.0), &out).ok());
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 4.0, 8.0, 8.0, -1.0), &out).ok());
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 8.0, 12.0, 4.0, 0.5), &out).ok());
  // Sort output pieces by range and verify value continuity at junctions.
  std::sort(out.begin(), out.end(), [](const Segment& a, const Segment& b) {
    return a.range.lo < b.range.lo;
  });
  for (size_t i = 0; i + 1 < out.size(); ++i) {
    const double boundary = out[i].range.hi;
    ASSERT_DOUBLE_EQ(boundary, out[i + 1].range.lo);
    const double left = out[i].attribute("agg")->Evaluate(boundary);
    const double right = out[i + 1].attribute("agg")->Evaluate(boundary);
    EXPECT_NEAR(left, right, 1e-8) << "discontinuity at " << boundary;
  }
}

TEST(PulseSumAvgAggregate, WindowFunctionMatchesNumericIntegral) {
  // Random-ish piecewise input; compare wf against numeric integration.
  PulseSumAvgAggregate agg("a", AvgOpts(2.5));
  std::vector<Segment> inputs = {
      LinearSegment(1, 0.0, 3.0, 1.0, 0.5),
      LinearSegment(1, 3.0, 5.5, 2.5, -0.2),
      LinearSegment(1, 5.5, 9.0, 2.0, 0.1),
  };
  SegmentBatch out;
  for (const Segment& s : inputs) {
    ASSERT_TRUE(agg.Process(0, s, &out).ok());
  }
  auto truth = [&](double t) {
    // Numeric integral of the piecewise input over [t - 2.5, t].
    double acc = 0.0;
    const int steps = 4000;
    const double lo = t - 2.5;
    for (int i = 0; i < steps; ++i) {
      const double u = lo + (2.5 * (i + 0.5)) / steps;
      for (const Segment& s : inputs) {
        if (u >= s.range.lo && u < s.range.hi) {
          acc += s.attribute("v")->Evaluate(u) * (2.5 / steps);
          break;
        }
      }
    }
    return acc / 2.5;
  };
  for (double t = 2.6; t < 8.9; t += 0.7) {
    double wf_value = std::nan("");
    for (const Segment& s : out) {
      if (s.range.Contains(t)) {
        wf_value = s.attribute("agg")->Evaluate(t);
        break;
      }
    }
    ASSERT_FALSE(std::isnan(wf_value)) << "no coverage at " << t;
    EXPECT_NEAR(wf_value, truth(t), 1e-3) << "t=" << t;
  }
}

TEST(PulseSumAvgAggregate, GapResetsCoverage) {
  PulseSumAvgAggregate agg("a", AvgOpts(2.0));
  SegmentBatch out;
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 0.0, 5.0, 1.0, 0.0), &out).ok());
  const size_t before = out.size();
  // A gap [5, 20): windows spanning it are undefined.
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 20.0, 22.0, 1.0, 0.0), &out).ok());
  for (size_t i = before; i < out.size(); ++i) {
    EXPECT_GE(out[i].range.lo, 22.0) << "window spanning the gap emitted";
  }
}

TEST(PulseSumAvgAggregate, InvertBoundScalesForSum) {
  PulseAggregateOptions o = AvgOpts(4.0);
  o.fn = AggFn::kSum;
  PulseSumAvgAggregate agg("a", o);
  SegmentBatch out;
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 0.0, 10.0, 1.0, 0.0), &out).ok());
  ASSERT_FALSE(out.empty());
  EquiSplit split;
  Result<std::vector<AllocatedBound>> allocs =
      agg.InvertBound(out[0], "agg", 1.0, split);
  ASSERT_TRUE(allocs.ok());
  ASSERT_EQ(allocs->size(), 1u);
  // Sum margin divides by the window length (4).
  EXPECT_NEAR((*allocs)[0].margin, 0.25, 1e-12);
}

// Window outputs that cite the same stored input share one copy of it in
// their lineage instead of each holding a snapshot, and inversion reads
// the same causes through the shared copy.
TEST(PulseSumAvgAggregate, WindowOutputsShareStoredInputs) {
  // Window 4 over v = 0 on [0,5) (key 1) and v = 10 on [5,10) (key 2):
  // closes [4,5) cite the first piece, [5,9) both, [9,10) the second.
  PulseSumAvgAggregate agg("a", AvgOpts(4.0));
  const Segment first = LinearSegment(1, 0.0, 5.0, 0.0, 0.0);
  const Segment second = LinearSegment(2, 5.0, 10.0, 10.0, 0.0);
  SegmentBatch out;
  ASSERT_TRUE(agg.Process(0, first, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  // The second push expires [4,5)'s record, so read it now.
  const std::vector<LineageEntry>* a = agg.lineage().Lookup(out[0].id);
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 1u);
  const std::shared_ptr<const Segment> first_copy = (*a)[0].input;
  ASSERT_TRUE(agg.Process(0, second, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(agg.lineage().Lookup(out[0].id), nullptr);
  const std::vector<LineageEntry>* b = agg.lineage().Lookup(out[1].id);
  const std::vector<LineageEntry>* c = agg.lineage().Lookup(out[2].id);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(b->size(), 2u);
  ASSERT_EQ(c->size(), 1u);
  EXPECT_EQ((*b)[0].input.get(), first_copy.get());
  EXPECT_EQ((*b)[1].input.get(), (*c)[0].input.get());
  EXPECT_EQ((*b)[0].input->id, first.id);
  EXPECT_EQ((*b)[1].input->id, second.id);
  EXPECT_EQ(*(*b)[1].input->attribute("v"), *second.attribute("v"));

  // avg passes the whole margin to every cause, in cause order.
  EquiSplit split;
  Result<std::vector<AllocatedBound>> allocs =
      agg.InvertBound(out[1], "agg", 0.3, split);
  ASSERT_TRUE(allocs.ok());
  ASSERT_EQ(allocs->size(), 2u);
  const Key keys[] = {1, 2};
  const uint64_t ids[] = {first.id, second.id};
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ((*allocs)[i].key, keys[i]);
    EXPECT_EQ((*allocs)[i].attribute, "v");
    EXPECT_EQ((*allocs)[i].margin, 0.3);
    EXPECT_EQ((*allocs)[i].port, 0u);
    EXPECT_EQ((*allocs)[i].segment_id, ids[i]);
  }
}

TEST(MakePulseAggregate, DispatchesAndRejectsCount) {
  PulseAggregateOptions o = MinOpts();
  Result<std::unique_ptr<PulseOperator>> min =
      MakePulseAggregate("m", o);
  ASSERT_TRUE(min.ok());
  EXPECT_NE(dynamic_cast<PulseMinMaxAggregate*>(min->get()), nullptr);
  o.fn = AggFn::kAvg;
  Result<std::unique_ptr<PulseOperator>> avg =
      MakePulseAggregate("a", o);
  ASSERT_TRUE(avg.ok());
  EXPECT_NE(dynamic_cast<PulseSumAvgAggregate*>(avg->get()), nullptr);
  o.fn = AggFn::kCount;
  Result<std::unique_ptr<PulseOperator>> count =
      MakePulseAggregate("c", o);
  EXPECT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kUnimplemented);
}

// Sweep over window sizes: single-segment window function equals the
// analytic average of a linear model.
class AvgWindowSweep : public ::testing::TestWithParam<double> {};

TEST_P(AvgWindowSweep, LinearModelAnalyticAverage) {
  const double w = GetParam();
  PulseSumAvgAggregate agg("a", AvgOpts(w));
  SegmentBatch out;
  ASSERT_TRUE(
      agg.Process(0, LinearSegment(1, 0.0, 50.0, 2.0, 3.0), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  const Polynomial wf = *out[0].attribute("agg");
  // avg of 2 + 3u over [t-w, t] = 2 + 3(t - w/2).
  for (double t = w + 0.1; t < 50.0; t += 3.7) {
    EXPECT_NEAR(wf.Evaluate(t), 2.0 + 3.0 * (t - w / 2.0), 1e-7)
        << "w=" << w << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, AvgWindowSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0, 10.0, 30.0));

}  // namespace
}  // namespace pulse
