// Pins the shard routing contract of docs/SHARDING.md: the key hash is
// a stable on-disk-grade constant (golden values), the router spreads
// keys evenly and deterministically, partitionability analysis accepts
// exactly the plan shapes whose state is per-key, the tuple-weighted
// exchange stays live, and the sharded runtime reproduces the serial
// runtime byte-identically.

#include "shard/shard_router.h"

#include <chrono>
#include <future>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "shard/exchange.h"
#include "shard/sharded_runtime.h"
#include "testing/differential.h"
#include "testing/plan_gen.h"
#include "workload/moving_object.h"
#include "workload/telemetry.h"

namespace pulse {
namespace shard {
namespace {

// Golden values for the splitmix64 finalizer. These pin the hash
// constants themselves: any change to ShardKeyHash silently reshuffles
// every key-to-shard assignment, so it must fail loudly here instead.
TEST(ShardKeyHash, GoldenValues) {
  EXPECT_EQ(ShardKeyHash(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(ShardKeyHash(1), 0x910a2dec89025cc1ull);
  EXPECT_EQ(ShardKeyHash(7), 0x63cbe1e459320dd7ull);
  EXPECT_EQ(ShardKeyHash(42), 0xbdd732262feb6e95ull);
  EXPECT_EQ(ShardKeyHash(-1), 0xe4d971771b652c20ull);
  EXPECT_EQ(ShardKeyHash(123456789), 0x223c74d93deb7679ull);
}

TEST(ShardRouter, ClampsToAtLeastOneShard) {
  EXPECT_EQ(ShardRouter(0).num_shards(), 1u);
  EXPECT_EQ(ShardRouter(1).num_shards(), 1u);
  EXPECT_EQ(ShardRouter(5).num_shards(), 5u);
}

TEST(ShardRouter, SingleShardTakesEverything) {
  ShardRouter router(1);
  for (Key key = -100; key <= 100; ++key) {
    EXPECT_EQ(router.ShardOf(key), 0u);
  }
}

TEST(ShardRouter, Deterministic) {
  ShardRouter a(4);
  ShardRouter b(4);
  for (Key key = 0; key < 1000; ++key) {
    EXPECT_EQ(a.ShardOf(key), b.ShardOf(key));
  }
}

// Sequential keys (the common entity-id shape) must spread close to
// uniformly: with 10k keys over 4 shards, each shard expects 2500; a
// [2200, 2800] band is ~12 sigma for a uniform hash, so a failure means
// the hash or the range reduction is broken, not bad luck.
TEST(ShardRouter, SpreadsSequentialKeysEvenly) {
  ShardRouter router(4);
  std::vector<size_t> counts(4, 0);
  for (Key key = 0; key < 10000; ++key) {
    const size_t shard = router.ShardOf(key);
    ASSERT_LT(shard, 4u);
    ++counts[shard];
  }
  for (size_t shard = 0; shard < 4; ++shard) {
    EXPECT_GT(counts[shard], 2200u) << "shard " << shard;
    EXPECT_LT(counts[shard], 2800u) << "shard " << shard;
  }
}

// A hot key is pinned: every occurrence lands on one shard (per-key
// state never splits), whatever the shard count.
TEST(ShardRouter, HotKeyStaysOnOneShard) {
  for (size_t shards : {2u, 3u, 4u, 7u, 16u}) {
    ShardRouter router(shards);
    const size_t home = router.ShardOf(42);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(router.ShardOf(42), home) << shards << " shards";
    }
  }
}

// ---------------------------------------------------------------------
// Partitionability: per-key state shapes pass, cross-key shapes do not.

TEST(AnalyzePartitionability, EmptyPlanIsPartitionable) {
  QuerySpec spec;
  EXPECT_TRUE(AnalyzePartitionability(spec).partitionable);
}

TEST(AnalyzePartitionability, FilterAndPerKeyAggregatePass) {
  QuerySpec spec;
  spec.AddFilter("f", QuerySpec::Input::Stream("s"), FilterSpec{});
  AggregateSpec agg;
  agg.per_key = true;
  spec.AddAggregate("a", QuerySpec::Input::Node(0), agg);
  const PartitionAnalysis analysis = AnalyzePartitionability(spec);
  EXPECT_TRUE(analysis.partitionable) << analysis.reason;
}

TEST(AnalyzePartitionability, KeyMatchedJoinPasses) {
  QuerySpec spec;
  JoinSpec join;
  join.match_keys = true;
  spec.AddJoin("j", QuerySpec::Input::Stream("l"),
               QuerySpec::Input::Stream("r"), join);
  const PartitionAnalysis analysis = AnalyzePartitionability(spec);
  EXPECT_TRUE(analysis.partitionable) << analysis.reason;
}

TEST(AnalyzePartitionability, CrossKeyJoinRejected) {
  QuerySpec spec;
  JoinSpec join;
  join.match_keys = false;
  spec.AddJoin("j", QuerySpec::Input::Stream("l"),
               QuerySpec::Input::Stream("r"), join);
  const PartitionAnalysis analysis = AnalyzePartitionability(spec);
  EXPECT_FALSE(analysis.partitionable);
  EXPECT_FALSE(analysis.reason.empty());
}

TEST(AnalyzePartitionability, DistinctKeySelfJoinRejected) {
  QuerySpec spec;
  JoinSpec join;
  join.match_keys = true;
  join.require_distinct_keys = true;
  spec.AddJoin("j", QuerySpec::Input::Stream("s"),
               QuerySpec::Input::Stream("s"), join);
  EXPECT_FALSE(AnalyzePartitionability(spec).partitionable);
}

TEST(AnalyzePartitionability, CrossKeyAggregateRejected) {
  QuerySpec spec;
  AggregateSpec agg;
  agg.per_key = false;
  spec.AddAggregate("a", QuerySpec::Input::Stream("s"), agg);
  EXPECT_FALSE(AnalyzePartitionability(spec).partitionable);
}

TEST(AnalyzePartitionability, EpochDistinctDetectionChainPasses) {
  // The Sonata detection shape — epoch -> filter -> distinct — is
  // per-key throughout: epoch is stateless and distinct keeps one
  // last-emitted-epoch per key, so a key-hash partition preserves the
  // output exactly.
  QuerySpec spec;
  ASSERT_TRUE(
      spec.AddStream(TelemetryGenerator::MakeStreamSpec("telemetry", 5.0))
          .ok());
  ASSERT_TRUE(AddPortScanQuery(&spec, TelemetryQueryParams{}).ok());
  const PartitionAnalysis analysis = AnalyzePartitionability(spec);
  EXPECT_TRUE(analysis.partitionable) << analysis.reason;
}

// ---------------------------------------------------------------------
// End to end: the sharded runtime equals the serial one byte for byte.
// The differential suite pins this across 200 seeds and a full
// threads x cache x shards grid; this is the fast smoke plus the
// non-partitionable fallback and the shard metrics naming contract.

// Detection output is shard-count invariant: the epoch/distinct chain
// run over telemetry-mode model segments produces byte-identical events
// at 1, 2, and 3 shards (per-key distinct state never observes a key it
// doesn't own, and the canonical merge restores one global order).
TEST(ShardedRuntime, EpochDistinctDetectionIsShardCountInvariant) {
  testing::PlanGenOptions gen;
  gen.archetypes = {testing::PlanArchetype::kEpochDistinct};
  auto kase = testing::GenerateCase(3010, gen);
  ASSERT_TRUE(kase.ok()) << kase.status().message();

  auto run = [&](size_t shards) -> std::vector<std::string> {
    ShardedRuntimeOptions options;
    options.num_shards = shards;
    options.runtime.collect_outputs = true;
    auto rt = ShardedRuntime::Make(kase->spec, std::move(options));
    EXPECT_TRUE(rt.ok()) << rt.status().message();
    EXPECT_TRUE(rt->partitionable());
    EXPECT_EQ(rt->num_shards(), shards);
    for (const auto& ws : kase->workloads) {
      for (const Segment& s : ws.ToSegments()) {
        EXPECT_TRUE(rt->ProcessSegment(ws.name, s).ok());
      }
    }
    EXPECT_TRUE(rt->Finish().ok());
    std::vector<std::string> events;
    for (const Segment& s : rt->TakeOutputSegments()) {
      events.push_back(s.ToString());
    }
    return events;
  };

  const std::vector<std::string> serial = run(1);
  EXPECT_FALSE(serial.empty())
      << "seed 3010 should produce detection events (vacuous otherwise)";
  EXPECT_EQ(run(2), serial) << "2-shard detection output diverged";
  EXPECT_EQ(run(3), serial) << "3-shard detection output diverged";
}

TEST(ShardedRuntime, NonPartitionablePlanCollapsesToOneShard) {
  // Seeds with a cross-key sink (the generator's join archetype uses
  // require_distinct_keys) still run — on one effective shard.
  auto kase = testing::GenerateCase(1001);
  ASSERT_TRUE(kase.ok()) << kase.status().message();
  ShardedRuntimeOptions options;
  options.num_shards = 4;
  options.runtime.collect_outputs = true;
  auto rt = ShardedRuntime::Make(kase->spec, std::move(options));
  ASSERT_TRUE(rt.ok()) << rt.status().message();
  if (!rt->partitionable()) {
    EXPECT_EQ(rt->num_shards(), 1u);
  } else {
    EXPECT_EQ(rt->num_shards(), 4u);
  }
}

TEST(ShardedRuntime, ShardMetricsNamesPublished) {
  auto kase = testing::GenerateCase(1002);
  ASSERT_TRUE(kase.ok()) << kase.status().message();
  ShardedRuntimeOptions options;
  options.num_shards = 2;
  options.runtime.collect_outputs = true;
  auto rt = ShardedRuntime::Make(kase->spec, std::move(options));
  ASSERT_TRUE(rt.ok()) << rt.status().message();
  uint64_t fed = 0;
  for (size_t i = 0; i < kase->workloads.size(); ++i) {
    for (const Segment& s : kase->workloads[i].ToSegments()) {
      ASSERT_TRUE(
          rt->ProcessSegment(kase->workloads[i].name, s).ok());
      ++fed;
    }
  }
  ASSERT_TRUE(rt->Finish().ok());
  const obs::MetricsSnapshot snap = rt->Snapshot();
  if (!obs::kMetricsEnabled) return;
  // Per-shard series for every effective shard, and a plain-name rollup
  // that is their sum: here, every segment fed.
  uint64_t per_shard_sum = 0;
  for (size_t shard = 0; shard < rt->num_shards(); ++shard) {
    const std::string name =
        "shard/" + std::to_string(shard) + "/runtime/segments_pushed";
    ASSERT_EQ(snap.counters.count(name), 1u) << name;
    per_shard_sum += snap.counters.at(name);
  }
  ASSERT_EQ(snap.counters.count("runtime/segments_pushed"), 1u);
  EXPECT_EQ(snap.counters.at("runtime/segments_pushed"), per_shard_sum);
  EXPECT_EQ(per_shard_sum, fed);
}

// ---------------------------------------------------------------------
// The exchange: one record per (call, shard), bounded in tuples.

ExchangeRecord TupleRecord(size_t tuples) {
  ExchangeRecord record;
  for (size_t i = 0; i < tuples; ++i) {
    record.AddTuple(Tuple(0.1 * i, {Value(int64_t{1}), Value(2.5)}),
                    static_cast<uint32_t>(i));
  }
  return record;
}

TEST(ExchangeRecord, TuplesRoundTripThroughFlatStorage) {
  ExchangeRecord record;
  record.AddTuple(Tuple(1.0, {Value(int64_t{7}), Value(0.5)}), 3);
  record.AddTuple(Tuple(2.0, {Value(int64_t{9})}), 5);
  record.AddTuple(Tuple(3.0, {Value(int64_t{4}), Value("s"), Value(1.5)}),
                  8);
  ASSERT_EQ(record.weight(), 3u);
  Tuple out;
  record.TupleAt(1, &out);
  EXPECT_EQ(out.timestamp, 2.0);
  ASSERT_EQ(out.values.size(), 1u);
  EXPECT_EQ(out.at(0).as_int64(), 9);
  record.TupleAt(2, &out);
  ASSERT_EQ(out.values.size(), 3u);
  EXPECT_EQ(out.at(1).as_string(), "s");
  EXPECT_EQ(out.at(2).as_double(), 1.5);
  record.TupleAt(0, &out);
  ASSERT_EQ(out.values.size(), 2u);
  EXPECT_EQ(out.at(0).as_int64(), 7);
  EXPECT_EQ(record.position(2), 8u);
}

// A record heavier than the whole capacity still enters an empty queue,
// so an oversized call can never wedge its producer.
TEST(ExchangeQueue, OversizedRecordEntersEmptyQueue) {
  ExchangeQueue queue(256);
  ASSERT_TRUE(queue.Push(TupleRecord(1000)));
  EXPECT_EQ(queue.weight(), 1000u);
  ExchangeRecord out;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out.num_tuples(), 1000u);
  EXPECT_EQ(queue.weight(), 0u);
}

TEST(ExchangeQueue, ProducerBlocksWhileCapacityIsQueued) {
  ExchangeQueue queue(256);
  ASSERT_TRUE(queue.Push(TupleRecord(256)));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(TupleRecord(1)));
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(pushed.load()) << "a 257th tuple entered a 256-tuple queue";
  ExchangeRecord out;
  ASSERT_TRUE(queue.Pop(&out));
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.weight(), 1u);
}

// Producers of different weights share one queue. Freeing space must
// wake all of them: a single wake-up can land on the 5-tuple producer
// while only the 3-tuple record fits.
TEST(ExchangeQueue, MixedWeightProducersNeverStall) {
  ExchangeQueue queue(8);
  constexpr int kRecords = 2000;
  auto produce = [&](size_t weight) {
    for (int i = 0; i < kRecords; ++i) {
      if (!queue.Push(TupleRecord(weight))) return;
    }
  };
  auto run = std::async(std::launch::async, [&] {
    std::thread five(produce, 5);
    std::thread three(produce, 3);
    size_t tuples = 0;
    ExchangeRecord out;
    for (int i = 0; i < 2 * kRecords && queue.Pop(&out); ++i) {
      tuples += out.num_tuples();
    }
    five.join();
    three.join();
    return tuples;
  });
  ASSERT_EQ(run.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "exchange stalled with mixed-weight producers";
  EXPECT_EQ(run.get(), kRecords * 8u);
}

TEST(ExchangeQueue, CloseFailsPushesAndDrainsQueued) {
  ExchangeQueue queue(4);
  ASSERT_TRUE(queue.Push(TupleRecord(4)));
  std::thread blocked([&] { EXPECT_FALSE(queue.Push(TupleRecord(1))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  blocked.join();
  ExchangeRecord out;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_FALSE(queue.Pop(&out));
}

// ---------------------------------------------------------------------
// Batched calls through ShardedRuntime against the serial runtime.

QuerySpec ObjectsFilterSpec() {
  QuerySpec spec;
  EXPECT_TRUE(
      spec.AddStream(MovingObjectGenerator::MakeStreamSpec("objects", 5.0))
          .ok());
  FilterSpec filter;
  filter.predicate = Predicate::Comparison(ComparisonTerm::Simple(
      AttrRef::Left("x"), CmpOp::kLt, Operand::Constant(500.0)));
  spec.AddFilter("f", QuerySpec::Input::Stream("objects"), filter);
  return spec;
}

HistoricalRuntime::Options ObjectsRuntimeOptions() {
  HistoricalRuntime::Options options;
  options.collect_outputs = true;
  options.segmentation.degree = 1;
  options.segmentation.max_error = 0.05;
  return options;
}

std::vector<Tuple> ObjectsTrace(size_t n, size_t keys, uint64_t seed) {
  MovingObjectOptions options;
  options.num_objects = keys;
  options.tuples_per_segment = 12;
  options.area = 1000.0;
  options.seed = seed;
  return MovingObjectGenerator(options).Generate(n);
}

// Every field a client sees, coefficients as exact hex floats (segment
// ids are engine-assigned and excluded, as in docs/SHARDING.md).
std::string Exact(const std::vector<Segment>& segments) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const Segment& s : segments) {
    os << s.key << ' ' << s.range.lo << ' ' << s.range.hi << ' '
       << s.range.lo_open << s.range.hi_open;
    for (const auto& [name, poly] : s.attributes) {
      os << ' ' << name << ':';
      for (size_t k = 0; k <= poly.degree(); ++k) os << poly.coeff(k) << ',';
    }
    for (const auto& [name, v] : s.unmodeled) os << ' ' << name << '=' << v;
    os << '\n';
  }
  return os.str();
}

// Calls of 1, 64 and 1,000 tuples over keys on every shard, segments in
// between and a Barrier mid-run: the released prefix at the barrier and
// the whole output equal the serial runtime's at every shard count.
TEST(ShardedRuntime, MixedCallSizesMatchSerialAtEveryShardCount) {
  const std::vector<Tuple> trace = ObjectsTrace(6000, 64, 7);
  const size_t kSizes[] = {1, 64, 1000, 1, 1, 64, 1000, 64};
  auto segment_at = [](size_t i) {
    // Keys no tuple uses, so the pushed segments never interleave with
    // a segmenter's own output for the same key.
    Segment seg(static_cast<Key>(1000 + i),
                Interval::ClosedOpen(static_cast<double>(i),
                                     static_cast<double>(i) + 10.0));
    seg.set_attribute("x", Polynomial({490.0, 1.0}));
    seg.set_attribute("y", Polynomial({0.0}));
    return seg;
  };
  // Drives `rt` through the fixed call schedule; `barrier` runs after
  // half of the trace and returns the prefix released at that point.
  auto drive = [&](auto& rt, auto barrier) {
    std::string prefix;
    size_t next = 0, call = 0;
    bool barrier_done = false;
    while (next < trace.size()) {
      const size_t n = std::min(kSizes[call % 8], trace.size() - next);
      EXPECT_TRUE(rt.ProcessTuples("objects", trace.data() + next, n).ok());
      next += n;
      if (call % 3 == 0) {
        EXPECT_TRUE(rt.ProcessSegment("objects", segment_at(call)).ok());
      }
      ++call;
      if (!barrier_done && next >= trace.size() / 2) {
        prefix = barrier(rt);
        barrier_done = true;
      }
    }
    EXPECT_TRUE(rt.Finish().ok());
    return std::make_pair(prefix, prefix + Exact(rt.TakeOutputSegments()));
  };

  auto serial = HistoricalRuntime::Make(ObjectsFilterSpec(),
                                        ObjectsRuntimeOptions());
  ASSERT_TRUE(serial.ok()) << serial.status().message();
  const auto expected = drive(*serial, [](HistoricalRuntime& rt) {
    return Exact(rt.TakeOutputSegments());
  });
  ASSERT_FALSE(expected.first.empty());
  ASSERT_NE(expected.first, expected.second);

  for (size_t shards : {1u, 2u, 3u, 4u}) {
    ShardedRuntimeOptions options;
    options.num_shards = shards;
    options.runtime = ObjectsRuntimeOptions();
    auto rt = ShardedRuntime::Make(ObjectsFilterSpec(), std::move(options));
    ASSERT_TRUE(rt.ok()) << rt.status().message();
    ASSERT_EQ(rt->num_shards(), shards);
    const auto got = drive(*rt, [](ShardedRuntime& r) {
      EXPECT_TRUE(r.Barrier().ok());
      return Exact(r.TakeOutputSegments());
    });
    EXPECT_EQ(got.first, expected.first) << shards << " shards, at barrier";
    EXPECT_EQ(got.second, expected.second) << shards << " shards";
    if (obs::kMetricsEnabled && shards > 1) {
      // Batched: far fewer records crossed than tuples.
      obs::MetricsSnapshot snap = rt->Snapshot();
      EXPECT_EQ(snap.counters["shard/exchange/tuples"], trace.size());
      EXPECT_LT(snap.counters["shard/exchange/records"], trace.size() / 4);
    }
  }
}

// A 1,000-tuple call against the 256-tuple exchange bound completes.
TEST(ShardedRuntime, CallLargerThanExchangeCapacityCompletes) {
  static_assert(kExchangeCapacity < 1000, "the call must outweigh the bound");
  const std::vector<Tuple> trace = ObjectsTrace(1000, 1, 3);
  auto serial = HistoricalRuntime::Make(ObjectsFilterSpec(),
                                        ObjectsRuntimeOptions());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(serial->ProcessTuples("objects", trace.data(), 1000).ok());
  ASSERT_TRUE(serial->Finish().ok());

  ShardedRuntimeOptions options;
  options.num_shards = 2;
  options.runtime = ObjectsRuntimeOptions();
  auto rt = ShardedRuntime::Make(ObjectsFilterSpec(), std::move(options));
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(rt->ProcessTuples("objects", trace.data(), 1000).ok());
  ASSERT_TRUE(rt->Finish().ok());
  EXPECT_EQ(Exact(rt->TakeOutputSegments()),
            Exact(serial->TakeOutputSegments()));
}

// A tuple without its key field ends the call: the tuples before it are
// processed, the call fails, and Barrier/Finish still return.
TEST(ShardedRuntime, MissingKeyMidCallKeepsPrefixAndFails) {
  std::vector<Tuple> trace = ObjectsTrace(300, 16, 5);
  constexpr size_t kBad = 200;
  auto serial = HistoricalRuntime::Make(ObjectsFilterSpec(),
                                        ObjectsRuntimeOptions());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(serial->ProcessTuples("objects", trace.data(), kBad).ok());
  ASSERT_TRUE(serial->Finish().ok());
  const std::string expected = Exact(serial->TakeOutputSegments());
  ASSERT_FALSE(expected.empty());

  trace[kBad] = Tuple(trace[kBad].timestamp, {});
  ShardedRuntimeOptions options;
  options.num_shards = 4;
  options.runtime = ObjectsRuntimeOptions();
  auto rt = ShardedRuntime::Make(ObjectsFilterSpec(), std::move(options));
  ASSERT_TRUE(rt.ok());
  const Status status = rt->ProcessTuples("objects", trace.data(), 300);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_TRUE(rt->Barrier().ok());
  EXPECT_TRUE(rt->Finish().ok());
  EXPECT_EQ(Exact(rt->TakeOutputSegments()), expected);
}

// ShardedRuntime::stats() sums the per-shard registries' runtime/*
// counters; on one mixed feed (batched and single tuples, fitted
// segments) it must equal the serial runtime's stats at every shard
// count.
TEST(ShardedRuntime, StatsMatchSerialAtEveryShardCount) {
  const std::vector<Tuple> trace = ObjectsTrace(3000, 32, 13);
  auto drive = [&](auto& rt) {
    for (size_t i = 0; i < trace.size(); i += 100) {
      EXPECT_TRUE(rt.ProcessTuples("objects", trace.data() + i, 99).ok());
      EXPECT_TRUE(rt.ProcessTuple("objects", trace[i + 99]).ok());
      // A key no tuple uses, so the segment never interleaves with a
      // segmenter's own output for the same key.
      Segment seg(static_cast<Key>(1000 + i),
                  Interval::ClosedOpen(static_cast<double>(i),
                                       static_cast<double>(i) + 10.0));
      seg.set_attribute("x", Polynomial({490.0, 1.0}));
      seg.set_attribute("y", Polynomial({0.0}));
      EXPECT_TRUE(rt.ProcessSegment("objects", std::move(seg)).ok());
    }
    EXPECT_TRUE(rt.Finish().ok());
    return rt.stats();
  };

  auto serial = HistoricalRuntime::Make(ObjectsFilterSpec(),
                                        ObjectsRuntimeOptions());
  ASSERT_TRUE(serial.ok()) << serial.status().message();
  const RuntimeStats expected = drive(*serial);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(expected.tuples_in, trace.size());
    EXPECT_GT(expected.segments_pushed, 0u);
    EXPECT_GT(expected.output_segments, 0u);
  }

  for (size_t shards : {1u, 2u, 3u, 4u}) {
    ShardedRuntimeOptions options;
    options.num_shards = shards;
    options.runtime = ObjectsRuntimeOptions();
    auto rt = ShardedRuntime::Make(ObjectsFilterSpec(), std::move(options));
    ASSERT_TRUE(rt.ok()) << rt.status().message();
    const RuntimeStats got = drive(*rt);
    EXPECT_EQ(got.tuples_in, expected.tuples_in) << shards << " shards";
    EXPECT_EQ(got.segments_pushed, expected.segments_pushed)
        << shards << " shards";
    EXPECT_EQ(got.output_segments, expected.output_segments)
        << shards << " shards";
  }
}

// An aborted client's records are skipped but still completed, so
// released_seq catches up and Barrier/Finish do not hang.
TEST(ShardPool, AbortedClientStillCompletesItsCalls) {
  ShardPoolOptions options;
  options.num_shards = 3;
  options.runtime = ObjectsRuntimeOptions();
  auto pool = ShardPool::Make(ObjectsFilterSpec(), std::move(options));
  ASSERT_TRUE(pool.ok()) << pool.status().message();
  auto client = (*pool)->AddClient();
  ASSERT_TRUE(client.ok());
  const std::vector<Tuple> trace = ObjectsTrace(2000, 32, 11);
  (*client)->Abort();
  for (size_t i = 0; i < trace.size(); i += 100) {
    ASSERT_TRUE(
        (*client)->ProcessTuples("objects", trace.data() + i, 100).ok());
  }
  EXPECT_TRUE((*client)->Barrier().ok());
  EXPECT_TRUE((*client)->Finish().ok());
  EXPECT_TRUE((*client)->TakeOutputSegments().empty());
  client->reset();
}

}  // namespace
}  // namespace shard
}  // namespace pulse
