// Contract suite for the observability layer (src/obs/): counter, gauge,
// and histogram semantics, the bucket and percentile math against a
// brute-force sorted oracle, snapshot consistency under concurrent
// writers (runs under TSan in scripts/check.sh), operator counters
// bound into shared series, spans, and golden files for the JSON and
// Prometheus exporters. Also built with -DPULSE_NO_METRICS, where every
// value assertion is guarded by kMetricsEnabled.
#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/runtime.h"
#include "obs/export.h"
#include "obs/span.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workload/moving_object.h"
#include "util/json.h"
#include "util/rng.h"

namespace pulse {
namespace obs {
namespace {

// "w<index>", built by append: GCC 12 at -O3 flags the inlined insert of
// `"w" + std::to_string(w)` with a spurious -Wrestrict.
// The tests that check what a mutation stores have nothing to check
// when -DPULSE_NO_METRICS makes every mutation a no-op.
constexpr const char* kCompiledOut = "metric mutations are compiled out";

std::string WriterName(int w) {
  std::string name = "w";
  name += std::to_string(w);
  return name;
}

TEST(CounterTest, AddIncrementStoreValue) {
  if constexpr (!kMetricsEnabled) GTEST_SKIP() << kCompiledOut;
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Store(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(GaugeTest, LastWriteWins) {
  if constexpr (!kMetricsEnabled) GTEST_SKIP() << kCompiledOut;
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.25);
  EXPECT_EQ(g.value(), 3.25);
  g.Set(-1e-9);
  EXPECT_EQ(g.value(), -1e-9);
  g.Set(0.0);
  EXPECT_EQ(g.value(), 0.0);
}

TEST(GaugeLevelTest, LevelsSumAndLeaveWithTheirOwner) {
  Gauge shared;
  Gauge other;
  {
    GaugeLevel a(&shared);
    a.Set(5);
    {
      GaugeLevel b(&shared);
      b.Set(3);
      a.Set(2);
      if constexpr (kMetricsEnabled) {
        EXPECT_EQ(shared.value(), 5.0);
      }
    }
    if constexpr (kMetricsEnabled) {
      EXPECT_EQ(shared.value(), 2.0);
    }
    a.Retarget(&other);
    if constexpr (kMetricsEnabled) {
      EXPECT_EQ(shared.value(), 0.0);
      EXPECT_EQ(other.value(), 2.0);
    }
  }
  EXPECT_EQ(other.value(), 0.0);
}

// ---------------------------------------------------------------------
// Bucket math

TEST(HistogramBucketTest, SmallValuesAreExact) {
  for (uint64_t v = 0; v < 4; ++v) {
    const size_t b = Histogram::BucketOf(v);
    EXPECT_EQ(b, v);
    const auto [lo, hi] = Histogram::BucketBounds(b);
    EXPECT_EQ(lo, v);
    EXPECT_EQ(hi, v + 1);
  }
}

TEST(HistogramBucketTest, EveryValueLandsInsideItsBucketBounds) {
  Rng rng(11);
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v < 5000; ++v) values.push_back(v);
  for (int shift = 0; shift < 64; ++shift) {
    const uint64_t base = uint64_t{1} << shift;
    for (int64_t d : {-2, -1, 0, 1, 2}) {
      if (d < 0 && base < static_cast<uint64_t>(-d)) continue;
      values.push_back(base + static_cast<uint64_t>(d));
    }
  }
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform 64-bit values: every octave gets coverage.
    const int shift = static_cast<int>(rng.UniformInt(0, 63));
    values.push_back((uint64_t{1} << shift) |
                     static_cast<uint64_t>(rng.UniformInt(0, 1 << 30)));
  }
  values.push_back(std::numeric_limits<uint64_t>::max());
  for (const uint64_t v : values) {
    const size_t b = Histogram::BucketOf(v);
    ASSERT_LT(b, Histogram::kNumBuckets) << "value " << v;
    const auto [lo, hi] = Histogram::BucketBounds(b);
    EXPECT_GE(v, lo) << "value " << v << " bucket " << b;
    // The top bucket saturates: its bound is inclusive of UINT64_MAX.
    if (hi == std::numeric_limits<uint64_t>::max()) {
      EXPECT_LE(v, hi) << "value " << v << " bucket " << b;
    } else {
      EXPECT_LT(v, hi) << "value " << v << " bucket " << b;
    }
  }
}

TEST(HistogramBucketTest, BucketsAreContiguousAndAtMost25PercentWide) {
  for (size_t b = 0; b + 1 < Histogram::kNumBuckets; ++b) {
    const auto [lo, hi] = Histogram::BucketBounds(b);
    const auto [next_lo, next_hi] = Histogram::BucketBounds(b + 1);
    ASSERT_LT(lo, hi) << "bucket " << b;
    EXPECT_EQ(hi, next_lo) << "gap after bucket " << b;
    // Width <= 25% of the lower bound (the histogram's error contract),
    // modulo the exact unit buckets at the bottom.
    if (lo >= 4) {
      EXPECT_LE(hi - lo, lo / 4 + 1) << "bucket " << b;
    }
  }
}

// ---------------------------------------------------------------------
// Recording and percentile math

TEST(HistogramTest, CountSumMax) {
  if constexpr (!kMetricsEnabled) GTEST_SKIP() << kCompiledOut;
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50.0), 0.0);  // empty
  for (uint64_t v : {5u, 1u, 100u, 0u}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.max(), 100u);
}

// The percentile estimate interpolates inside the bucket holding the
// target order statistic, so the estimate must lie within that bucket's
// value range — checked against a brute-force sorted oracle.
void CheckPercentilesAgainstOracle(const Histogram& h,
                                   std::vector<uint64_t> sorted) {
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  for (const double p :
       {0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    const double target = std::max(1.0, p / 100.0 * static_cast<double>(n));
    const size_t idx = static_cast<size_t>(std::ceil(target)) - 1;
    const uint64_t truth = sorted[std::min(idx, n - 1)];
    const auto [lo, hi] = Histogram::BucketBounds(Histogram::BucketOf(truth));
    const double est = h.Percentile(p);
    EXPECT_GE(est, static_cast<double>(lo)) << "p" << p;
    EXPECT_LE(est, static_cast<double>(std::min(hi, h.max()) ))
        << "p" << p << " truth " << truth;
  }
}

TEST(HistogramTest, PercentileMatchesSortedOracleUniform) {
  if constexpr (!kMetricsEnabled) GTEST_SKIP() << kCompiledOut;
  Histogram h;
  Rng rng(17);
  std::vector<uint64_t> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(static_cast<uint64_t>(rng.UniformInt(0, 1000000)));
    h.Record(values.back());
  }
  CheckPercentilesAgainstOracle(h, values);
}

TEST(HistogramTest, PercentileMatchesSortedOracleLogUniform) {
  if constexpr (!kMetricsEnabled) GTEST_SKIP() << kCompiledOut;
  Histogram h;
  Rng rng(23);
  std::vector<uint64_t> values;
  for (int i = 0; i < 10000; ++i) {
    // Latency-shaped: spans many octaves, like span timings do.
    const int shift = static_cast<int>(rng.UniformInt(4, 40));
    values.push_back(
        (uint64_t{1} << shift) +
        static_cast<uint64_t>(rng.UniformInt(0, int64_t{1} << shift)));
    h.Record(values.back());
  }
  CheckPercentilesAgainstOracle(h, values);
}

TEST(HistogramTest, PercentileSingleValueIsExactWithinBucket) {
  if constexpr (!kMetricsEnabled) GTEST_SKIP() << kCompiledOut;
  Histogram h;
  h.Record(1000);
  // One observation: every percentile collapses to its bucket, clamped
  // to the recorded max.
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    const auto [lo, hi] = Histogram::BucketBounds(Histogram::BucketOf(1000));
    EXPECT_GE(h.Percentile(p), static_cast<double>(lo));
    EXPECT_LE(h.Percentile(p), 1000.0) << "clamped to max";
    (void)hi;
  }
}

// ---------------------------------------------------------------------
// Registry: handles, snapshots

TEST(MetricsRegistryTest, HandlesAreStableAndNamed) {
  if constexpr (!kMetricsEnabled) GTEST_SKIP() << kCompiledOut;
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("runtime/tuples_in");
  EXPECT_EQ(registry.GetCounter("runtime/tuples_in"), c);
  c->Add(5);
  Gauge* g = registry.GetGauge("op/join/state_size");
  g->Set(12.0);
  Histogram* h = registry.GetHistogram("span/solve/batch");
  h->Record(100);
  EXPECT_EQ(registry.size(), 3u);

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("runtime/tuples_in"), 5u);
  EXPECT_EQ(snap.gauges.at("op/join/state_size"), 12.0);
  EXPECT_EQ(snap.histograms.at("span/solve/batch").count, 1u);
  EXPECT_EQ(snap.histograms.at("span/solve/batch").max, 100u);
}

TEST(MetricsRegistryTest, SnapshotIsConsistentUnder8WriterThreads) {
  if constexpr (!kMetricsEnabled) GTEST_SKIP() << kCompiledOut;
  MetricsRegistry registry;
  constexpr int kWriters = 8;
  constexpr uint64_t kPerWriter = 20000;
  Counter* shared = registry.GetCounter("shared");
  Histogram* hist = registry.GetHistogram("lat");
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Counter* own = registry.GetCounter(WriterName(w));
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        own->Increment();
        shared->Add(1);
        hist->Record(i);
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Concurrent snapshots: totals are bounded and monotone while writers
  // run (relaxed counters never go backwards).
  uint64_t last_shared = 0;
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = registry.Snapshot();
    const uint64_t s = snap.counters.at("shared");
    EXPECT_LE(s, kWriters * kPerWriter);
    EXPECT_GE(s, last_shared);
    last_shared = s;
    EXPECT_LE(snap.histograms.at("lat").count, kWriters * kPerWriter);
  }
  for (std::thread& t : writers) t.join();
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("shared"), kWriters * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(snap.counters.at(WriterName(w)), kPerWriter);
  }
  const HistogramStats& lat = snap.histograms.at("lat");
  EXPECT_EQ(lat.count, kWriters * kPerWriter);
  EXPECT_EQ(lat.max, kPerWriter - 1);
  EXPECT_EQ(lat.sum, kWriters * (kPerWriter * (kPerWriter - 1) / 2));
}

// ---------------------------------------------------------------------
// Operator counters: registry series shared by every bound runtime

QuerySpec ObjectsQuery(bool with_aggregate) {
  QuerySpec spec;
  EXPECT_TRUE(
      spec.AddStream(MovingObjectGenerator::MakeStreamSpec("objects", 5.0))
          .ok());
  if (with_aggregate) {
    AggregateSpec agg;
    agg.fn = AggFn::kMin;
    agg.attribute = "x";
    agg.window_seconds = 100.0;
    spec.AddAggregate("a", QuerySpec::Input::Stream("objects"), agg);
  } else {
    FilterSpec filter;
    filter.predicate = Predicate::Comparison(ComparisonTerm::Simple(
        AttrRef::Left("x"), CmpOp::kLt, Operand::Constant(6.0)));
    spec.AddFilter("f", QuerySpec::Input::Stream("objects"), filter);
  }
  return spec;
}

// Four keys whose x zig-zags, so every key closes a segment every few
// samples.
std::vector<Tuple> ZigZagTrace() {
  std::vector<Tuple> trace;
  for (int i = 0; i < 400; ++i) {
    const int step = i / 4;
    const double x =
        (step / 4) % 2 == 0 ? 4.0 * (step % 4) : 12.0 - 4.0 * (step % 4);
    trace.push_back(Tuple(step * 0.05, {Value(int64_t{i % 4}), Value(x),
                                        Value(0.0), Value(0.0), Value(0.0)}));
  }
  return trace;
}

HistoricalRuntime::Options SharedRegistryOptions(MetricsRegistry* registry) {
  HistoricalRuntime::Options options;
  options.segmentation.degree = 1;
  options.segmentation.max_error = 0.05;
  options.collect_outputs = false;
  options.metrics = registry;
  return options;
}

TEST(OperatorCountersTest, RuntimesSharingARegistryAddIntoOneSeries) {
  MetricsRegistry registry;
  const std::vector<Tuple> trace = ZigZagTrace();
  {
    std::vector<HistoricalRuntime> runtimes;
    for (int r = 0; r < 2; ++r) {
      Result<HistoricalRuntime> rt = HistoricalRuntime::Make(
          ObjectsQuery(false), SharedRegistryOptions(&registry));
      ASSERT_TRUE(rt.ok());
      runtimes.push_back(std::move(*rt));
    }
    for (HistoricalRuntime& rt : runtimes) {
      ASSERT_TRUE(rt.ProcessTuples("objects", trace.data(), trace.size())
                      .ok());
      ASSERT_TRUE(rt.Finish().ok());
    }
  }
  // Both runtimes are gone; their counts stay in the registry.
  const MetricsSnapshot snap = registry.Snapshot();
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(name.find('#'), std::string::npos) << name;
  }
  if constexpr (kMetricsEnabled) {
    const uint64_t pushed = snap.counters.at("runtime/segments_pushed");
    EXPECT_GT(pushed, 2u);
    EXPECT_EQ(pushed % 2, 0u);  // two identical runs
    // The filter solves once per pushed segment.
    EXPECT_EQ(snap.counters.at("op/f/in"), pushed);
    EXPECT_EQ(snap.counters.at("op/f/solves"), pushed);
    EXPECT_EQ(snap.counters.at("op/f/out"),
              snap.counters.at("runtime/output_segments"));
    EXPECT_GT(snap.counters.at("op/f/out"), 0u);
  }
}

TEST(OperatorCountersTest, ServedSnapshotKeepsClosedSessionsSolves) {
  serve::ServerOptions options;
  options.spec = ObjectsQuery(false);
  options.runtime = SharedRegistryOptions(nullptr);
  options.num_shards = 2;
  options.session.admission.enabled = false;
  Result<std::unique_ptr<serve::StreamServer>> server =
      serve::StreamServer::Make(std::move(options));
  ASSERT_TRUE(server.ok());
  const std::vector<Tuple> trace = ZigZagTrace();
  for (int session = 0; session < 2; ++session) {
    Result<std::unique_ptr<serve::Transport>> conn =
        (*server)->ConnectInProcess();
    ASSERT_TRUE(conn.ok());
    serve::ServeClient client(std::move(*conn));
    ASSERT_TRUE(client.Hello().ok());
    ASSERT_TRUE(client.OpenStream(1, "objects").ok());
    ASSERT_TRUE(client.SendBatch(1, trace).ok());
    ASSERT_TRUE(client.Drain().ok());
  }
  (*server)->Drain();
  const MetricsSnapshot snap = (*server)->Snapshot();
  if constexpr (kMetricsEnabled) {
    const uint64_t pushed = snap.counters.at("runtime/segments_pushed");
    EXPECT_GT(pushed, 0u);
    EXPECT_EQ(snap.counters.at("op/f/solves"), pushed);
  }
}

TEST(OperatorCountersTest, StateSizeDropsWhenARuntimeIsDestroyed) {
  MetricsRegistry registry;
  const std::vector<Tuple> trace = ZigZagTrace();
  auto make_fed = [&]() -> std::unique_ptr<HistoricalRuntime> {
    Result<HistoricalRuntime> rt = HistoricalRuntime::Make(
        ObjectsQuery(true), SharedRegistryOptions(&registry));
    EXPECT_TRUE(rt.ok());
    EXPECT_TRUE(
        rt->ProcessTuples("objects", trace.data(), trace.size()).ok());
    return std::make_unique<HistoricalRuntime>(std::move(*rt));
  };
  Gauge* state = registry.GetGauge("op/a/state_size");
  std::unique_ptr<HistoricalRuntime> first = make_fed();
  const double one = state->value();
  std::unique_ptr<HistoricalRuntime> second = make_fed();
  if constexpr (kMetricsEnabled) {
    EXPECT_GT(one, 0.0);
    EXPECT_EQ(state->value(), 2.0 * one);  // identical inputs and levels
  }
  second.reset();
  if constexpr (kMetricsEnabled) {
    EXPECT_EQ(state->value(), one);
  }
  first.reset();
  EXPECT_EQ(state->value(), 0.0);
}

// ---------------------------------------------------------------------
// Spans

TEST(SpanTest, RecordsIntoTheScopedRegistry) {
  MetricsRegistry registry;
  {
    ScopedMetricsRegistry scoped(&registry);
    for (int i = 0; i < 3; ++i) {
      PULSE_SPAN("test/unit_span");
    }
  }
  const MetricsSnapshot snap = registry.Snapshot();
  if (kMetricsEnabled) {
    ASSERT_EQ(snap.histograms.count("span/test/unit_span"), 1u);
    EXPECT_EQ(snap.histograms.at("span/test/unit_span").count, 3u);
  } else {
    EXPECT_TRUE(snap.empty());
  }
}

TEST(SpanTest, SiteRebindsWhenTheScopedRegistryChanges) {
  MetricsRegistry a;
  MetricsRegistry b;
  auto emit = [] { PULSE_SPAN("test/rebind_span"); };
  {
    ScopedMetricsRegistry scoped(&a);
    emit();
  }
  {
    ScopedMetricsRegistry scoped(&b);
    emit();
    emit();
  }
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  EXPECT_EQ(a.Snapshot().histograms.at("span/test/rebind_span").count, 1u);
  EXPECT_EQ(b.Snapshot().histograms.at("span/test/rebind_span").count, 2u);
}

// Regression: the span-site cache must not key on the registry address
// alone. Short-lived runtimes allocate their registries back-to-back,
// so a fresh registry routinely lands at the previous one's recycled
// address; a pointer-keyed cache then serves a histogram pointer into
// the destroyed registry's freed map nodes and Record() corrupts the
// heap (glibc "corrupted size vs. prev_size" in differential seeds
// with aggregate/having plans). The epoch-keyed cache re-resolves.
TEST(SpanTest, SiteRebindsWhenARegistryIsRecreatedAtTheSameAddress) {
  auto emit = [] { PULSE_SPAN("test/reuse_span"); };
  // Many create/scope/destroy cycles: with the glibc allocator the
  // same-size registry reliably recycles an address within a few
  // iterations, which is what triggers the ABA on a pointer-keyed
  // cache. Each cycle's snapshot must see exactly its own record.
  for (int i = 0; i < 16; ++i) {
    auto registry = std::make_unique<MetricsRegistry>();
    ScopedMetricsRegistry scoped(registry.get());
    emit();
    if (!kMetricsEnabled) continue;
    EXPECT_EQ(
        registry->Snapshot().histograms.at("span/test/reuse_span").count,
        1u)
        << "cycle " << i;
  }
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
}

// ---------------------------------------------------------------------
// Exporters (golden files)

MetricsSnapshot GoldenSnapshot() {
  MetricsSnapshot snap;
  snap.counters["runtime/tuples_in"] = 42;
  snap.gauges["op/join/state_size"] = 7.0;
  HistogramStats h;
  h.count = 3;
  h.sum = 30;
  h.max = 16;
  h.p50 = 8.0;
  h.p95 = 15.5;
  h.p99 = 16.0;
  snap.histograms["span/solve/batch"] = h;
  return snap;
}

TEST(ExportTest, JsonGolden) {
  json::Writer writer(0);  // compact: a one-line golden
  WriteJson(GoldenSnapshot(), writer);
  EXPECT_EQ(writer.Take(),
            "{\"counters\":{\"runtime/tuples_in\":42},"
            "\"gauges\":{\"op/join/state_size\":7},"
            "\"histograms\":{\"span/solve/batch\":"
            "{\"count\":3,\"sum\":30,\"max\":16,"
            "\"p50\":8,\"p95\":15.5,\"p99\":16}}}");
}

TEST(ExportTest, JsonParsesBackStructurally) {
  const std::string doc = ToJson(GoldenSnapshot());
  Result<json::Value> parsed = json::Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << doc;
  const json::Value* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("runtime/tuples_in")->as_number(), 42.0);
  const json::Value* hist =
      parsed->Find("histograms")->Find("span/solve/batch");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->as_number(), 3.0);
  EXPECT_EQ(hist->Find("p95")->as_number(), 15.5);
}

TEST(ExportTest, PrometheusGolden) {
  EXPECT_EQ(ToPrometheus(GoldenSnapshot()),
            "# TYPE pulse_runtime_tuples_in counter\n"
            "pulse_runtime_tuples_in 42\n"
            "# TYPE pulse_op_join_state_size gauge\n"
            "pulse_op_join_state_size 7\n"
            "# TYPE pulse_span_solve_batch summary\n"
            "pulse_span_solve_batch{quantile=\"0.5\"} 8\n"
            "pulse_span_solve_batch{quantile=\"0.95\"} 15.5\n"
            "pulse_span_solve_batch{quantile=\"0.99\"} 16\n"
            "pulse_span_solve_batch_sum 30\n"
            "pulse_span_solve_batch_count 3\n"
            "pulse_span_solve_batch_max 16\n");
}

TEST(ExportTest, PrometheusNameSanitization) {
  EXPECT_EQ(PrometheusName("op/join.2/in"), "pulse_op_join_2_in");
  EXPECT_EQ(PrometheusName("already_ok_123"), "pulse_already_ok_123");
}

}  // namespace
}  // namespace obs
}  // namespace pulse

