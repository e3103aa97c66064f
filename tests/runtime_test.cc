#include "core/runtime.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "shard/sharded_runtime.h"
#include "store/checksum.h"
#include "workload/moving_object.h"
#include "workload/nyse.h"
#include "workload/queries.h"

namespace pulse {
namespace {

QuerySpec FilterQuerySpec(double threshold, double horizon = 5.0) {
  QuerySpec spec;
  EXPECT_TRUE(spec.AddStream(MovingObjectGenerator::MakeStreamSpec(
                                 "objects", horizon))
                  .ok());
  FilterSpec filter;
  filter.predicate = Predicate::Comparison(ComparisonTerm::Simple(
      AttrRef::Left("x"), CmpOp::kLt, Operand::Constant(threshold)));
  spec.AddFilter("f", QuerySpec::Input::Stream("objects"), filter);
  return spec;
}

Tuple ObjectTuple(double ts, int64_t id, double x, double vx) {
  return Tuple(ts,
               {Value(id), Value(x), Value(0.0), Value(vx), Value(0.0)});
}

TEST(PredictiveRuntime, FirstTupleBuildsModelAndSolves) {
  PredictiveRuntime::Options opts;
  opts.bounds = {BoundSpec::Absolute("x", 0.5)};
  Result<PredictiveRuntime> rt =
      PredictiveRuntime::Make(FilterQuerySpec(100.0), std::move(opts));
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(0.0, 1, 0.0, 1.0))
                  .ok());
  EXPECT_EQ(rt->stats().tuples_in, 1u);
  EXPECT_EQ(rt->stats().segments_pushed, 1u);
  // x < 100 always holds: one output segment, bound inverted.
  EXPECT_EQ(rt->stats().output_segments, 1u);
  EXPECT_GE(rt->stats().inversions, 1u);
}

TEST(PredictiveRuntime, AccurateTuplesAreValidatedNotReprocessed) {
  PredictiveRuntime::Options opts;
  opts.bounds = {BoundSpec::Absolute("x", 0.5)};
  Result<PredictiveRuntime> rt =
      PredictiveRuntime::Make(FilterQuerySpec(100.0), std::move(opts));
  ASSERT_TRUE(rt.ok());
  // Model: x = t (from x=0, vx=1 at t=0).
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(0.0, 1, 0.0, 1.0))
                  .ok());
  // Tuples exactly on the model: validated, no new segments.
  for (double t = 0.5; t < 4.5; t += 0.5) {
    ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(t, 1, t, 1.0))
                    .ok());
  }
  EXPECT_EQ(rt->stats().segments_pushed, 1u);
  EXPECT_EQ(rt->stats().tuples_validated, 8u);
  EXPECT_EQ(rt->stats().violations, 0u);
}

TEST(PredictiveRuntime, DeviationTriggersReprocessing) {
  PredictiveRuntime::Options opts;
  opts.bounds = {BoundSpec::Absolute("x", 0.5)};
  Result<PredictiveRuntime> rt =
      PredictiveRuntime::Make(FilterQuerySpec(100.0), std::move(opts));
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(0.0, 1, 0.0, 1.0))
                  .ok());
  // Actual x deviates from the model prediction by 3 > margin.
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(1.0, 1, 4.0, 1.0))
                  .ok());
  EXPECT_EQ(rt->stats().violations, 1u);
  EXPECT_EQ(rt->stats().segments_pushed, 2u);
}

TEST(PredictiveRuntime, ExpiredHorizonRebuildsWithoutViolation) {
  PredictiveRuntime::Options opts;
  opts.bounds = {BoundSpec::Absolute("x", 0.5)};
  Result<PredictiveRuntime> rt = PredictiveRuntime::Make(
      FilterQuerySpec(100.0, /*horizon=*/1.0), std::move(opts));
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(0.0, 1, 0.0, 1.0))
                  .ok());
  // t=2 is past the horizon [0,1): new segment, not a violation.
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(2.0, 1, 2.0, 1.0))
                  .ok());
  EXPECT_EQ(rt->stats().violations, 0u);
  EXPECT_EQ(rt->stats().segments_pushed, 2u);
}

TEST(PredictiveRuntime, PerKeyModels) {
  PredictiveRuntime::Options opts;
  opts.bounds = {BoundSpec::Absolute("x", 0.5)};
  Result<PredictiveRuntime> rt =
      PredictiveRuntime::Make(FilterQuerySpec(100.0), std::move(opts));
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(0.0, 1, 0.0, 1.0))
                  .ok());
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(0.1, 2, 50.0, -1.0))
                  .ok());
  EXPECT_EQ(rt->stats().segments_pushed, 2u);
  // Each follows its own model.
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(1.0, 1, 1.0, 1.0))
                  .ok());
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(1.1, 2, 49.0, -1.0))
                  .ok());
  EXPECT_EQ(rt->stats().tuples_validated, 2u);
}

TEST(PredictiveRuntime, SlackModeSuppressesNearMisses) {
  // Filter x < 10 with a model far above the threshold: null result with
  // large slack; subsequent small deviations are ignored via slack
  // validation even though they exceed the accuracy bound.
  PredictiveRuntime::Options opts;
  opts.bounds = {BoundSpec::Absolute("x", 0.01)};
  Result<PredictiveRuntime> rt =
      PredictiveRuntime::Make(FilterQuerySpec(10.0), std::move(opts));
  ASSERT_TRUE(rt.ok());
  // Model x = 50 (constant): filter never fires; slack = 40.
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(0.0, 1, 50.0, 0.0))
                  .ok());
  EXPECT_EQ(rt->stats().output_segments, 0u);
  EXPECT_EQ(rt->validator().mode(1), ValidationMode::kSlack);
  // Deviation 5 < slack 40: ignored.
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(1.0, 1, 45.0, 0.0))
                  .ok());
  EXPECT_EQ(rt->stats().tuples_validated, 1u);
  EXPECT_EQ(rt->stats().segments_pushed, 1u);
}

TEST(PredictiveRuntime, SampledTupleOutputs) {
  PredictiveRuntime::Options opts;
  opts.bounds = {BoundSpec::Absolute("x", 0.5)};
  opts.sample_rate = 10.0;
  Result<PredictiveRuntime> rt =
      PredictiveRuntime::Make(FilterQuerySpec(100.0), std::move(opts));
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(0.0, 1, 0.0, 1.0))
                  .ok());
  // Output segment [0, 5) sampled at 10 Hz: 50 tuples.
  std::vector<Tuple> tuples = rt->TakeOutputTuples();
  EXPECT_EQ(tuples.size(), 50u);
  EXPECT_EQ(rt->stats().output_tuples, 50u);
}

TEST(MultiAttributeSegmenter, JointBreakOnAnyAttribute) {
  StreamSpec stream = MovingObjectGenerator::MakeStreamSpec("objects", 1.0);
  SegmentationOptions opts;
  opts.degree = 1;
  opts.max_error = 0.1;
  MultiAttributeSegmenter seg(stream, opts);
  // x linear throughout; y kinks at t = 5.
  std::optional<Segment> emitted;
  for (int i = 0; i < 100; ++i) {
    const double t = i * 0.1;
    const double y = t < 5.0 ? t : 10.0 - t;
    Tuple tuple(t, {Value(int64_t{1}), Value(t), Value(y), Value(1.0),
                    Value(0.0)});
    Result<std::optional<Segment>> r = seg.Add(tuple);
    ASSERT_TRUE(r.ok());
    if (r->has_value() && !emitted.has_value()) emitted = **r;
  }
  ASSERT_TRUE(emitted.has_value());
  // First segment ends near the kink at t = 5.
  EXPECT_NEAR(emitted->range.hi, 5.0, 0.6);
  EXPECT_TRUE(emitted->has_attribute("x"));
  EXPECT_TRUE(emitted->has_attribute("y"));
}

TEST(MultiAttributeSegmenter, FlushEmitsResiduals) {
  StreamSpec stream = MovingObjectGenerator::MakeStreamSpec("objects", 1.0);
  SegmentationOptions opts;
  opts.degree = 1;
  opts.max_error = 10.0;
  MultiAttributeSegmenter seg(stream, opts);
  for (int i = 0; i < 10; ++i) {
    Tuple tuple(i * 0.1, {Value(int64_t{1}), Value(1.0 * i), Value(0.0),
                          Value(1.0), Value(0.0)});
    ASSERT_TRUE(seg.Add(tuple).ok());
  }
  Result<std::vector<Segment>> rest = seg.Flush();
  ASSERT_TRUE(rest.ok());
  ASSERT_EQ(rest->size(), 1u);
  EXPECT_EQ((*rest)[0].key, 1);
}

// Feeds key 1 of the moving-object stream, x = f(t) and y = 0, through
// one segmenter and returns every closed piece, the flushed tail last.
std::vector<Segment> SegmentTrace(const SegmentationOptions& opts,
                                  const std::vector<double>& times,
                                  double (*f)(double)) {
  MultiAttributeSegmenter seg(
      MovingObjectGenerator::MakeStreamSpec("objects", 1.0), opts);
  std::vector<Segment> out;
  for (double t : times) {
    Result<std::optional<Segment>> r =
        seg.Add(Tuple(t, {Value(int64_t{1}), Value(f(t)), Value(0.0),
                          Value(0.0), Value(0.0)}));
    EXPECT_TRUE(r.ok());
    if (r.ok() && r->has_value()) out.push_back(std::move(**r));
  }
  Result<std::vector<Segment>> rest = seg.Flush();
  EXPECT_TRUE(rest.ok());
  if (rest.ok()) {
    for (Segment& s : *rest) out.push_back(std::move(s));
  }
  return out;
}

std::vector<double> Times(size_t n, double dt, double t0 = 0.0) {
  std::vector<double> out;
  for (size_t i = 0; i < n; ++i) out.push_back(t0 + i * dt);
  return out;
}

// Piecewise linear in t with a sharp slope change every 10 time units
// (every 100 samples at dt = 0.1).
double Zigzag(double t) {
  double value = 0.0;
  double slope = 1.0;
  double at = 0.0;
  while (at + 10.0 <= t) {
    value += slope * 10.0;
    at += 10.0;
    slope = -slope * 1.5;
  }
  return value + slope * (t - at);
}

TEST(MultiAttributeSegmenter, SingleLineNeverBreaks) {
  SegmentationOptions opts;
  opts.degree = 1;
  opts.max_error = 0.01;
  std::vector<Segment> segs = SegmentTrace(
      opts, Times(500, 1.0), [](double t) { return 2.0 * t + 1.0; });
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_DOUBLE_EQ(segs[0].range.lo, 0.0);
  EXPECT_DOUBLE_EQ(segs[0].range.hi, 500.0);
}

TEST(MultiAttributeSegmenter, PiecesTileTime) {
  SegmentationOptions opts;
  opts.degree = 1;
  opts.max_error = 0.05;
  std::vector<Segment> segs = SegmentTrace(opts, Times(600, 0.1), Zigzag);
  ASSERT_GE(segs.size(), 6u);
  EXPECT_DOUBLE_EQ(segs.front().range.lo, 0.0);
  // Each range is extended by the trailing gap, so the next piece starts
  // where the previous one ends.
  for (size_t i = 0; i + 1 < segs.size(); ++i) {
    EXPECT_NEAR(segs[i].range.hi, segs[i + 1].range.lo, 1e-9)
        << "gap between pieces " << i << " and " << i + 1;
  }
  EXPECT_NEAR(segs.back().range.hi, 60.0, 1e-9);
}

TEST(MultiAttributeSegmenter, MaxPointsCapForcesBreaks) {
  SegmentationOptions opts;
  opts.degree = 1;
  opts.max_error = 1e9;  // never break on error
  opts.max_points_per_segment = 50;
  std::vector<Segment> segs = SegmentTrace(opts, Times(500, 0.1), Zigzag);
  // 50 samples at dt = 0.1 span 5 time units, trailing gap included.
  ASSERT_EQ(segs.size(), 10u);
  for (const Segment& s : segs) {
    EXPECT_NEAR(s.range.hi - s.range.lo, 5.0, 1e-9);
  }
}

// Compression sweep: a looser bound never gives more segments.
class ErrorBoundSweep : public ::testing::TestWithParam<double> {};

TEST_P(ErrorBoundSweep, SegmentCountDecreasesWithLooserBound) {
  SegmentationOptions tight;
  tight.degree = 1;
  tight.max_error = GetParam();
  SegmentationOptions loose = tight;
  loose.max_error = GetParam() * 10.0;
  const std::vector<double> times = Times(500, 0.05);
  auto wave = [](double t) { return std::sin(t); };
  const size_t tight_count = SegmentTrace(tight, times, wave).size();
  const size_t loose_count = SegmentTrace(loose, times, wave).size();
  EXPECT_GE(tight_count, loose_count);
  EXPECT_GE(loose_count, 1u);
}

INSTANTIATE_TEST_SUITE_P(Bounds, ErrorBoundSweep,
                         ::testing::Values(0.001, 0.01, 0.05));

TEST(MultiAttributeSegmenter, FlushOnEmptyEmitsNothing) {
  MultiAttributeSegmenter seg(
      MovingObjectGenerator::MakeStreamSpec("objects", 1.0),
      SegmentationOptions{});
  Result<std::vector<Segment>> rest = seg.Flush();
  ASSERT_TRUE(rest.ok());
  EXPECT_TRUE(rest->empty());
}

TEST(MultiAttributeSegmenter, RecoversExactLine) {
  SegmentationOptions line_opts;
  line_opts.degree = 1;
  line_opts.max_error = 1e-6;
  std::vector<Segment> line =
      SegmentTrace(line_opts, Times(20, 10.0 / 19.0),
                   [](double t) { return 2.0 - 1.5 * t; });
  ASSERT_EQ(line.size(), 1u);
  Result<Polynomial> line_x = line[0].attribute("x");
  ASSERT_TRUE(line_x.ok());
  EXPECT_TRUE(line_x->AlmostEquals(Polynomial({2.0, -1.5}), 1e-8))
      << line_x->ToString();
}

TEST(MultiAttributeSegmenter, RecoversExactQuadratic) {
  SegmentationOptions quad_opts;
  quad_opts.degree = 2;
  quad_opts.max_error = 1e-6;
  std::vector<Segment> quad =
      SegmentTrace(quad_opts, Times(30, 10.0 / 29.0, -5.0),
                   [](double t) { return 1.0 + 0.5 * t - 0.25 * t * t; });
  ASSERT_EQ(quad.size(), 1u);
  Result<Polynomial> quad_x = quad[0].attribute("x");
  ASSERT_TRUE(quad_x.ok());
  EXPECT_TRUE(quad_x->AlmostEquals(Polynomial({1.0, 0.5, -0.25}), 1e-7))
      << quad_x->ToString();
}

TEST(HistoricalRuntime, RejectsDegreeAboveModelerMaximum) {
  for (size_t degree : {size_t{5}, size_t{6}}) {
    HistoricalRuntime::Options opts;
    opts.segmentation.degree = degree;
    Result<HistoricalRuntime> rt =
        HistoricalRuntime::Make(FilterQuerySpec(100.0), std::move(opts));
    ASSERT_FALSE(rt.ok()) << "degree " << degree;
    EXPECT_EQ(rt.status().code(), StatusCode::kInvalidArgument);
  }
  HistoricalRuntime::Options at_max;
  at_max.segmentation.degree = MultiAttributeSegmenter::kMaxDegree;
  EXPECT_TRUE(
      HistoricalRuntime::Make(FilterQuerySpec(100.0), std::move(at_max)).ok());
}

TEST(HistoricalRuntime, SegmentsFlowThroughQuery) {
  HistoricalRuntime::Options opts;
  opts.segmentation.degree = 1;
  opts.segmentation.max_error = 0.05;
  Result<HistoricalRuntime> rt =
      HistoricalRuntime::Make(FilterQuerySpec(100.0), std::move(opts));
  ASSERT_TRUE(rt.ok());
  // A piecewise-linear x trace: sliding-window fitting emits segments
  // which pass the (always-true) filter.
  for (int i = 0; i < 300; ++i) {
    const double t = i * 0.05;
    const double x = t < 7.5 ? 2.0 * t : 30.0 - 2.0 * t;
    ASSERT_TRUE(
        rt->ProcessTuple("objects", ObjectTuple(t, 1, x, 0.0)).ok());
  }
  ASSERT_TRUE(rt->Finish().ok());
  EXPECT_EQ(rt->stats().tuples_in, 300u);
  EXPECT_GE(rt->stats().segments_pushed, 2u);
  EXPECT_GE(rt->stats().output_segments, rt->stats().segments_pushed);
  std::vector<Segment> outputs = rt->TakeOutputSegments();
  EXPECT_FALSE(outputs.empty());
}

TEST(HistoricalRuntime, DirectSegmentReplay) {
  HistoricalRuntime::Options opts;
  Result<HistoricalRuntime> rt =
      HistoricalRuntime::Make(FilterQuerySpec(5.0), std::move(opts));
  ASSERT_TRUE(rt.ok());
  Segment seg(1, Interval::ClosedOpen(0.0, 10.0));
  seg.set_attribute("x", Polynomial({0.0, 1.0}));
  seg.set_attribute("y", Polynomial());
  ASSERT_TRUE(rt->ProcessSegment("objects", seg).ok());
  std::vector<Segment> outputs = rt->TakeOutputSegments();
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_NEAR(outputs[0].range.hi, 5.0, 1e-9);
}

TEST(HistoricalRuntime, UnknownStreamFails) {
  // An undeclared stream fails on every entry point of both runtimes and
  // counts nothing: runtime/tuples_in is "tuples accepted".
  const Tuple tuples[] = {ObjectTuple(0.0, 1, 0.0, 0.0),
                          ObjectTuple(0.1, 1, 0.1, 0.0)};
  Result<HistoricalRuntime> hist = HistoricalRuntime::Make(
      FilterQuerySpec(5.0), HistoricalRuntime::Options{});
  ASSERT_TRUE(hist.ok());
  EXPECT_FALSE(hist->ProcessTuple("zzz", tuples[0]).ok());
  EXPECT_FALSE(hist->ProcessTuples("zzz", tuples, 2).ok());
  EXPECT_EQ(hist->stats().tuples_in, 0u);

  PredictiveRuntime::Options popts;
  popts.bounds = {BoundSpec::Absolute("x", 0.5)};
  Result<PredictiveRuntime> pred =
      PredictiveRuntime::Make(FilterQuerySpec(5.0), std::move(popts));
  ASSERT_TRUE(pred.ok());
  EXPECT_FALSE(pred->ProcessTuple("zzz", tuples[0]).ok());
  EXPECT_FALSE(pred->ProcessTuples("zzz", tuples, 2).ok());
  EXPECT_EQ(pred->stats().tuples_in, 0u);

  // A declared stream after the failures is still found and counted.
  ASSERT_TRUE(hist->ProcessTuples("objects", tuples, 2).ok());
  ASSERT_TRUE(pred->ProcessTuple("objects", tuples[0]).ok());
  EXPECT_EQ(hist->stats().tuples_in, 2u);
  EXPECT_EQ(pred->stats().tuples_in, 1u);
}

TEST(PredictiveRuntime, FinishTailIsKeySorted) {
  // Per-key running max of x: each key's envelope piece stays pending
  // until its own next segment settles it, so Finish emits one settled
  // piece per key. The keys arrive out of order; the finish tail must
  // come out in ascending key order.
  QuerySpec spec;
  ASSERT_TRUE(spec.AddStream(MovingObjectGenerator::MakeStreamSpec(
                                 "objects", 5.0))
                  .ok());
  AggregateSpec agg;
  agg.fn = AggFn::kMax;
  agg.attribute = "x";
  agg.window_seconds = 10.0;
  agg.per_key = true;
  spec.AddAggregate("max_x", QuerySpec::Input::Stream("objects"), agg);
  PredictiveRuntime::Options opts;
  opts.bounds = {BoundSpec::Absolute("agg", 0.5)};
  Result<PredictiveRuntime> rt =
      PredictiveRuntime::Make(spec, std::move(opts));
  ASSERT_TRUE(rt.ok());
  const int64_t keys[] = {4, 2, 7, 1};
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(rt->ProcessTuple("objects",
                                 ObjectTuple(0.1 * static_cast<double>(i),
                                             keys[i], 10.0 * keys[i], 1.0))
                    .ok());
  }
  (void)rt->TakeOutputSegments();
  ASSERT_TRUE(rt->Finish().ok());
  const std::vector<Segment> tail = rt->TakeOutputSegments();
  std::set<Key> distinct;
  for (const Segment& s : tail) distinct.insert(s.key);
  EXPECT_GE(distinct.size(), 3u);
  for (size_t i = 1; i < tail.size(); ++i) {
    EXPECT_LE(tail[i - 1].key, tail[i].key) << "finish output " << i;
  }
}

// Pins the runtime/* counter names each runtime registers: historical
// exports the 3 it can move, predictive all 7, and a sharded runtime the
// historical 3 in every shard registry. Checked-in metrics blocks and
// the per-shard series rely on the set not growing.
TEST(Runtime, ExportedCountersUnchanged) {
  auto runtime_counters = [](const obs::MetricsRegistry& registry) {
    std::vector<std::string> names;
    for (const auto& [name, value] : registry.Snapshot().counters) {
      if (name.rfind("runtime/", 0) == 0) names.push_back(name);
    }
    return names;
  };
  const std::vector<std::string> historical = {
      "runtime/output_segments", "runtime/segments_pushed",
      "runtime/tuples_in"};
  const std::vector<std::string> predictive = {
      "runtime/inversions",      "runtime/output_segments",
      "runtime/output_tuples",   "runtime/segments_pushed",
      "runtime/tuples_in",       "runtime/tuples_validated",
      "runtime/violations"};
  const Tuple tuple = ObjectTuple(0.0, 1, 0.0, 1.0);

  Result<HistoricalRuntime> hist = HistoricalRuntime::Make(
      FilterQuerySpec(100.0), HistoricalRuntime::Options{});
  ASSERT_TRUE(hist.ok());
  ASSERT_TRUE(hist->ProcessTuple("objects", tuple).ok());
  ASSERT_TRUE(hist->Finish().ok());
  EXPECT_EQ(runtime_counters(*hist->metrics()), historical);

  PredictiveRuntime::Options popts;
  popts.bounds = {BoundSpec::Absolute("x", 0.5)};
  Result<PredictiveRuntime> pred =
      PredictiveRuntime::Make(FilterQuerySpec(100.0), std::move(popts));
  ASSERT_TRUE(pred.ok());
  ASSERT_TRUE(pred->ProcessTuple("objects", tuple).ok());
  ASSERT_TRUE(pred->Finish().ok());
  EXPECT_EQ(runtime_counters(*pred->metrics()), predictive);

  shard::ShardedRuntimeOptions sopts;
  sopts.num_shards = 1;
  Result<shard::ShardedRuntime> sharded =
      shard::ShardedRuntime::Make(FilterQuerySpec(100.0), std::move(sopts));
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE(sharded->ProcessTuple("objects", tuple).ok());
  ASSERT_TRUE(sharded->Finish().ok());
  EXPECT_EQ(sharded->stats().tuples_in, 1u);
  EXPECT_EQ(runtime_counters(*sharded->pool().shard_metrics(0)), historical);
  for (const auto& [name, value] : sharded->Snapshot().counters) {
    if (name.find("runtime/") == std::string::npos) continue;
    const std::string suffix = name.substr(name.find("runtime/"));
    EXPECT_NE(std::find(historical.begin(), historical.end(), suffix),
              historical.end())
        << name;
  }
}

// Operators with only stateless operators below them keep lineage for
// one push, so a long run holds about what a short one does instead of
// one record per output ever produced. Returns the largest lineage size
// `op` showed between batches in the first eighth of `num_tuples` and in
// the rest.
std::pair<size_t, size_t> LineagePeaks(const QuerySpec& spec,
                                       size_t num_tuples,
                                       const std::string& op) {
  HistoricalRuntime::Options options;
  options.segmentation.degree = 1;
  options.segmentation.max_error = 0.5;
  options.collect_outputs = false;
  Result<HistoricalRuntime> rt = HistoricalRuntime::Make(spec, options);
  EXPECT_TRUE(rt.ok());
  const PulseOperator* node = nullptr;
  for (PulsePlan::NodeId n = 0; n < rt->plan().num_nodes(); ++n) {
    if (rt->plan().node(n)->name() == op) node = rt->plan().node(n);
  }
  EXPECT_NE(node, nullptr) << op;
  if (node == nullptr) return {0, 0};
  size_t early = 0;
  size_t late = 0;
  std::vector<Tuple> batch;
  for (size_t i = 0; i < num_tuples; ++i) {
    // 64 objects, each zig-zagging so segments keep closing.
    const int64_t id = static_cast<int64_t>(i % 64);
    const double t = static_cast<double>(i / 64) * 0.01;
    const double phase = std::fmod(t + 0.37 * static_cast<double>(id), 4.0);
    const double x = phase < 2.0 ? 5.0 * phase : 20.0 - 5.0 * phase;
    batch.push_back(ObjectTuple(t, id, x, 0.0));
    if (batch.size() == 4096 || i + 1 == num_tuples) {
      EXPECT_TRUE(
          rt->ProcessTuples("objects", batch.data(), batch.size()).ok());
      batch.clear();
      size_t& peak = (i < num_tuples / 8) ? early : late;
      peak = std::max(peak, node->lineage().size());
    }
  }
  return {early, late};
}

TEST(HistoricalRuntime, WindowlessLineageStaysBounded) {
  constexpr size_t kTuples = 1 << 20;
  QuerySpec epoch_distinct;
  ASSERT_TRUE(epoch_distinct
                  .AddStream(MovingObjectGenerator::MakeStreamSpec(
                      "objects", 5.0))
                  .ok());
  const QuerySpec::NodeId e = epoch_distinct.AddEpoch(
      "e", QuerySpec::Input::Stream("objects"), EpochSpec{});
  epoch_distinct.AddDistinct("d", QuerySpec::Input::Node(e), DistinctSpec{});
  struct Case {
    QuerySpec spec;
    std::string op;
  };
  for (const Case& c : {Case{FilterQuerySpec(8.0), "f"},
                        Case{epoch_distinct, "e"},
                        Case{epoch_distinct, "d"}}) {
    const auto [early, late] = LineagePeaks(c.spec, kTuples, c.op);
    EXPECT_GT(early, 0u) << c.op;
    EXPECT_LE(late, 2 * early) << c.op;
  }
}

// An operator feeding a stateful one keeps its lineage: the stateful
// operator can emit from an old input long after the feeding operator
// has moved on, and inverting that output walks back into the old
// record. Every output must invert, and its bound reach the source.
PredictiveRuntime::Options MinBoundOptions() {
  PredictiveRuntime::Options opts;
  opts.bounds = {BoundSpec::Absolute("x", 0.5)};
  return opts;
}

AggregateSpec MinOfX(bool per_key) {
  AggregateSpec min;
  min.fn = AggFn::kMin;
  // Move-assigned from a std::string: GCC 12 at -O3 flags assigning a
  // literal to an empty string here with a spurious -Wrestrict.
  min.attribute = std::string("x");
  min.output_attribute = std::string("x");
  min.window_seconds = 1.0;
  min.slide_seconds = 1.0;
  min.per_key = per_key;
  return min;
}

TEST(PredictiveRuntime, FilterFeedingMinKeepsLineageAcrossOutputGap) {
  // f: x < 10 -> m: min(x) over 1 s. Segment horizon 1 s, so every
  // tuple past its key's horizon pushes a new segment.
  QuerySpec spec = FilterQuerySpec(10.0, /*horizon=*/1.0);
  spec.AddAggregate("m", QuerySpec::Input::Node(0), MinOfX(false));
  Result<PredictiveRuntime> rt =
      PredictiveRuntime::Make(spec, MinBoundOptions());
  ASSERT_TRUE(rt.ok());
  // Key 1 passes the filter at [0, 1); m holds that piece until an input
  // starts at or after 1.
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(0.0, 1, 0.0, 0.0))
                  .ok());
  // 30 s of key 2 that the filter drops: f advances, m sees nothing.
  for (double t = 1.5; t <= 30.0; t += 1.5) {
    ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(t, 2, 50.0, 0.0))
                    .ok());
  }
  EXPECT_EQ(rt->stats().output_segments, 0u);
  // Key 1 passes again: m emits the [0, 1) piece, caused by f's first
  // output.
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(31.0, 1, 0.0, 0.0))
                  .ok());
  EXPECT_EQ(rt->stats().output_segments, 1u);
  EXPECT_EQ(rt->stats().inversions, 1u);
  EXPECT_EQ(rt->bounds().Margin(1, "x"), 0.5);
  ASSERT_TRUE(rt->Finish().ok());
  EXPECT_EQ(rt->stats().output_segments, 2u);
  EXPECT_EQ(rt->stats().inversions, 2u);
}

TEST(PredictiveRuntime, MapFeedingPerKeyMinKeepsLineageForIdleKey) {
  // p: keep x, add d = x - y -> m: per-key min(x) over 1 s -> f: x < 100.
  // The inversion walk passes through the group-by (its inner operators
  // hold the lineage) into p's record of key 1's first segment, so p must
  // keep that record while key 2 runs; every output still inverts.
  QuerySpec spec;
  ASSERT_TRUE(
      spec.AddStream(MovingObjectGenerator::MakeStreamSpec("objects", 1.0))
          .ok());
  MapSpec map;
  map.outputs = {ComputedAttr::Difference("d", AttrRef::Left("x"),
                                          AttrRef::Left("y"))};
  const QuerySpec::NodeId p =
      spec.AddMap("p", QuerySpec::Input::Stream("objects"), map);
  const QuerySpec::NodeId m =
      spec.AddAggregate("m", QuerySpec::Input::Node(p), MinOfX(true));
  FilterSpec below;
  below.predicate = Predicate::Comparison(ComparisonTerm::Simple(
      AttrRef::Left("x"), CmpOp::kLt, Operand::Constant(100.0)));
  spec.AddFilter("f", QuerySpec::Input::Node(m), below);
  Result<PredictiveRuntime> rt =
      PredictiveRuntime::Make(spec, MinBoundOptions());
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(0.0, 1, 0.0, 0.0))
                  .ok());
  // Key 2 runs for 30 s while key 1 stays idle.
  for (double t = 1.5; t <= 30.0; t += 1.5) {
    ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(t, 2, 5.0, 0.0))
                    .ok());
  }
  const uint64_t before = rt->stats().output_segments;
  EXPECT_EQ(rt->stats().inversions, before);
  // Key 1's next segment releases its [0, 1) minimum.
  ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(31.0, 1, 0.0, 0.0))
                  .ok());
  EXPECT_EQ(rt->stats().output_segments, before + 1);
  EXPECT_EQ(rt->stats().inversions, before + 1);
  EXPECT_EQ(rt->bounds().Margin(1, "x"), 0.5);
  ASSERT_TRUE(rt->Finish().ok());
  EXPECT_EQ(rt->stats().inversions, rt->stats().output_segments);
}

// Predictive golden runs. Each pins the output hash (canonical encoding,
// ids zeroed), the validated-tuple and violation counts, and the output
// count of one seeded predictive run fed in 64-tuple calls. The figures
// were recorded before segments in lineage became shared, so a change to
// the cheap path, lineage or bound inversion that moves an answer fails
// here. runtime/tuples_validated and the output stream depend on every
// inverted margin, so a changed margin shows too.
struct GoldenRun {
  uint64_t hash = store::kCanonicalHashSeed;
  uint64_t outputs = 0;
  uint64_t validated = 0;
  uint64_t violations = 0;
};

GoldenRun RunGolden(const QuerySpec& spec, PredictiveRuntime::Options opts,
                    const std::string& stream,
                    const std::vector<Tuple>& trace) {
  GoldenRun run;
  Result<PredictiveRuntime> rt = PredictiveRuntime::Make(spec, std::move(opts));
  EXPECT_TRUE(rt.ok());
  if (!rt.ok()) return run;
  auto fold = [&run](const std::vector<Segment>& segments) {
    for (const Segment& s : segments) {
      run.hash = store::CanonicalSegmentHash(s, run.hash);
    }
    run.outputs += segments.size();
  };
  for (size_t done = 0; done < trace.size(); done += 64) {
    const size_t n = std::min<size_t>(64, trace.size() - done);
    EXPECT_TRUE(rt->ProcessTuples(stream, trace.data() + done, n).ok());
    fold(rt->TakeOutputSegments());
  }
  EXPECT_TRUE(rt->Finish().ok());
  fold(rt->TakeOutputSegments());
  run.validated = rt->stats().tuples_validated;
  run.violations = rt->stats().violations;
  return run;
}

TEST(PredictiveGolden, Macd) {
  // 10 symbols at 400 trades/s for 100 s: the 60 s window warms up
  // after about 24,000 trades.
  QuerySpec spec;
  ASSERT_TRUE(
      spec.AddStream(NyseGenerator::MakeStreamSpec("nyse", 5.0)).ok());
  ASSERT_TRUE(AddMacdQuery(&spec, MacdParams{}).ok());
  NyseOptions gen;
  gen.num_symbols = 10;
  gen.tuple_rate = 400.0;
  gen.trades_per_trend = 300;
  gen.noise = 0.02;
  gen.seed = 29;
  PredictiveRuntime::Options opts;
  opts.bounds = {BoundSpec::Relative("s.ap", 0.01)};
  const GoldenRun run =
      RunGolden(spec, std::move(opts), "nyse",
                NyseGenerator(gen).Generate(40000));
  EXPECT_EQ(run.hash, 0x16010328ad645affull);
  EXPECT_EQ(run.outputs, 166u);
  EXPECT_EQ(run.validated, 39799u);
  EXPECT_EQ(run.violations, 2u);
}

TEST(PredictiveGolden, Filter) {
  MovingObjectOptions gen;
  gen.num_objects = 20;
  gen.tuple_rate = 1000.0;
  gen.tuples_per_segment = 50;
  gen.area = 1000.0;
  gen.noise = 0.05;
  gen.seed = 29;
  PredictiveRuntime::Options opts;
  opts.bounds = {BoundSpec::Absolute("x", 0.5)};
  const GoldenRun run =
      RunGolden(FilterQuerySpec(500.0, /*horizon=*/1.0), std::move(opts),
                "objects", MovingObjectGenerator(gen).Generate(20000));
  EXPECT_EQ(run.hash, 0xe9a0bea8dc9d2160ull);
  EXPECT_EQ(run.outputs, 259u);
  EXPECT_EQ(run.validated, 19600u);
  EXPECT_EQ(run.violations, 71u);
}

// runtime/tuples_validated moves once per ProcessTuples call, so stats()
// read after each call must match a run fed one tuple at a time, read at
// the same points.
TEST(PredictiveRuntime, BatchedStatsMatchOneAtATime) {
  MovingObjectOptions gen;
  gen.num_objects = 8;
  gen.tuple_rate = 400.0;
  gen.tuples_per_segment = 40;
  gen.area = 1000.0;
  gen.noise = 0.05;
  gen.seed = 5;
  const std::vector<Tuple> trace = MovingObjectGenerator(gen).Generate(4000);
  auto make = [] {
    PredictiveRuntime::Options opts;
    opts.bounds = {BoundSpec::Absolute("x", 0.5)};
    opts.collect_outputs = false;
    return PredictiveRuntime::Make(FilterQuerySpec(500.0, 1.0),
                                   std::move(opts));
  };
  Result<PredictiveRuntime> batched = make();
  Result<PredictiveRuntime> single = make();
  ASSERT_TRUE(batched.ok());
  ASSERT_TRUE(single.ok());
  auto same = [](const RuntimeStats& a, const RuntimeStats& b) {
    return a.tuples_in == b.tuples_in &&
           a.tuples_validated == b.tuples_validated &&
           a.violations == b.violations &&
           a.segments_pushed == b.segments_pushed &&
           a.output_segments == b.output_segments &&
           a.inversions == b.inversions;
  };
  // Uneven call sizes, so call boundaries fall everywhere.
  const size_t sizes[] = {1, 7, 64, 3, 130, 16};
  size_t done = 0;
  for (size_t call = 0; done < trace.size(); ++call) {
    const size_t n = std::min(sizes[call % 6], trace.size() - done);
    ASSERT_TRUE(
        batched->ProcessTuples("objects", trace.data() + done, n).ok());
    for (size_t i = done; i < done + n; ++i) {
      ASSERT_TRUE(single->ProcessTuple("objects", trace[i]).ok());
    }
    done += n;
    ASSERT_TRUE(same(batched->stats(), single->stats())) << "call " << call;
  }
  EXPECT_GT(batched->stats().tuples_validated, 0u);
  EXPECT_GT(batched->stats().violations, 0u);
}

// A call that fails part-way still counts the tuples it validated before
// the failure.
TEST(PredictiveRuntime, FailedCallStillCountsValidated) {
  // vx is a tuple field but no modeled attribute, so every push fails in
  // the filter; the model installed before the push still explains the
  // key's later tuples.
  QuerySpec spec;
  ASSERT_TRUE(
      spec.AddStream(MovingObjectGenerator::MakeStreamSpec("objects", 5.0))
          .ok());
  FilterSpec filter;
  filter.predicate = Predicate::Comparison(ComparisonTerm::Simple(
      AttrRef::Left("vx"), CmpOp::kLt, Operand::Constant(1.0)));
  spec.AddFilter("f", QuerySpec::Input::Stream("objects"), filter);
  Result<PredictiveRuntime> rt =
      PredictiveRuntime::Make(spec, PredictiveRuntime::Options{});
  ASSERT_TRUE(rt.ok());
  const Tuple first = ObjectTuple(0.0, 1, 0.0, 1.0);
  EXPECT_FALSE(rt->ProcessTuples("objects", &first, 1).ok());
  const Tuple tuples[] = {ObjectTuple(0.5, 1, 0.5, 1.0),
                          ObjectTuple(1.0, 1, 1.0, 1.0),
                          ObjectTuple(1.5, 2, 0.0, 1.0),
                          ObjectTuple(2.0, 1, 2.0, 1.0)};
  EXPECT_FALSE(rt->ProcessTuples("objects", tuples, 4).ok());
  EXPECT_EQ(rt->stats().tuples_in, 5u);
  EXPECT_EQ(rt->stats().tuples_validated, 2u);
  EXPECT_EQ(rt->stats().segments_pushed, 0u);
}

// A per-key aggregate sink: PulseGroupBy's inner operators record the
// lineage, and the runtime finds it through LookupCauses, so every
// output inverts and the bound reaches the source key.
TEST(PredictiveRuntime, PerKeyAggregateSinkInverts) {
  QuerySpec spec;
  ASSERT_TRUE(
      spec.AddStream(MovingObjectGenerator::MakeStreamSpec("objects", 1.0))
          .ok());
  spec.AddAggregate("m", QuerySpec::Input::Stream("objects"), MinOfX(true));
  Result<PredictiveRuntime> rt =
      PredictiveRuntime::Make(spec, MinBoundOptions());
  ASSERT_TRUE(rt.ok());
  for (int i = 0; i < 20; ++i) {
    const double t = 1.5 * i;
    ASSERT_TRUE(rt->ProcessTuple("objects", ObjectTuple(t, 1, t, 0.0)).ok());
    ASSERT_TRUE(
        rt->ProcessTuple("objects", ObjectTuple(t + 0.5, 2, 50.0, 0.0))
            .ok());
  }
  ASSERT_TRUE(rt->Finish().ok());
  EXPECT_GT(rt->stats().output_segments, 0u);
  EXPECT_GT(rt->stats().inversions, 0u);
  EXPECT_EQ(rt->stats().inversions, rt->stats().output_segments);
  EXPECT_EQ(rt->bounds().Margin(1, "x"), 0.5);
  EXPECT_EQ(rt->bounds().Margin(2, "x"), 0.5);
}

}  // namespace
}  // namespace pulse
