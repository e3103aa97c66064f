// ingest_durable: store writes beside store reads.
//
// Segments fitted during set-up (MultiAttributeSegmenter over a 64-key
// moving-object trace) are pushed as kSegment frames, closed loop, over
// one TCP connection into a durable StreamServer running the Fig. 5
// filter: every admitted segment is appended to the segment log and
// indexed into its key's timeline. A second thread issues
// SegmentStore::QueryRange range aggregates over closed history, open
// loop at kQueryRate queries/s, timed from when each was due; reads and
// writes contend for the store's one mutex. After drain the store
// directory is recovered with store::RecoverSharded.
//
// Each round uses a fresh store directory and server. Verification: the
// served output equals a HistoricalRuntime segment replay; every
// kVerifyEvery-th query answer equals a linear scan of the drained
// SegmentStore::Timeline; the recovery reports state_verified with every
// record back.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <thread>
#include <unistd.h>

#include "serve/server.h"
#include "serve/tcp_transport.h"
#include "store/recovery.h"
#include "store/store.h"
#include "util/rng.h"
#include "workload/moving_object.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace pulse;
namespace fs = std::filesystem;

constexpr size_t kKeys = 64;
constexpr size_t kTuplesPerModel = 8;
constexpr size_t kRoundSegments = 32768;
constexpr size_t kSmokeRoundSegments = 2048;
/// Open-loop read rate, queries/s: a quarter of one reader's capacity
/// when the rate was fixed (a QueryRange beside the writer took 0.28 ms
/// at the median, so about 3,500 queries/s, on a 4-vCPU Xeon VM). A
/// constant, so that every commit is measured at the same load;
/// BENCHMARK.json records it in the workload's description.
constexpr double kQueryRate = 875.0;
constexpr double kLateLimitMs = 20.0;
constexpr size_t kVerifyEvery = 8;
/// Every kSpanSample-th segment send is recorded as a span.
constexpr size_t kSpanSample = 16;
constexpr int kSetupReps = 5;

HistoricalRuntime::Options RuntimeOptions() {
  HistoricalRuntime::Options opts;
  opts.segmentation.degree = 1;
  opts.segmentation.max_error = 0.5;
  opts.segmentation.max_points_per_segment = kTuplesPerModel;
  opts.collect_outputs = true;
  return opts;
}

QuerySpec Spec() { return MovingObjectFilterSpec(500.0); }

/// The segments one round pushes, in send order, and for every prefix
/// length n the earliest start of any segment not in that prefix: a
/// range ending before closed_before[n] touches only appended segments.
struct IngestInput {
  std::vector<Segment> segments;
  std::vector<double> closed_before;
};

Result<IngestInput> FitSegments(uint64_t seed, size_t count) {
  MovingObjectOptions o;
  o.num_objects = kKeys;
  o.tuple_rate = 1000.0;
  o.tuples_per_segment = kTuplesPerModel;
  o.area = 1000.0;
  o.noise = 0.1;
  o.seed = DeriveSeed(seed, 400);
  MovingObjectGenerator gen(o);
  MultiAttributeSegmenter segmenter(
      MovingObjectGenerator::MakeStreamSpec("objects", 5.0),
      RuntimeOptions().segmentation);
  IngestInput input;
  input.segments.reserve(count);
  while (input.segments.size() < count) {
    PULSE_ASSIGN_OR_RETURN(std::optional<Segment> closed,
                           segmenter.Add(gen.NextTuple()));
    if (closed.has_value()) input.segments.push_back(std::move(*closed));
  }
  input.closed_before.assign(count + 1,
                             std::numeric_limits<double>::infinity());
  for (size_t i = count; i-- > 0;) {
    input.closed_before[i] =
        std::min(input.closed_before[i + 1], input.segments[i].range.lo);
  }
  return input;
}

/// A durable server with its store and one connected client.
struct Env {
  std::string dir;
  std::optional<store::SegmentStore> store;
  std::unique_ptr<serve::StreamServer> server;
  std::unique_ptr<serve::ServeClient> client;
  obs::Counter* appends = nullptr;
};

Result<std::unique_ptr<Env>> StartEnv(const std::string& dir, size_t shards) {
  auto env = std::make_unique<Env>();
  env->dir = dir;
  std::error_code ec;
  fs::remove_all(dir, ec);
  store::StoreOptions store_options;
  store_options.dir = dir;
  PULSE_ASSIGN_OR_RETURN(store::SegmentStore st,
                         store::SegmentStore::Open(std::move(store_options)));
  env->store.emplace(std::move(st));
  env->appends = env->store->metrics()->GetCounter("store/appends");
  serve::ServerOptions o;
  o.spec = Spec();
  o.runtime = RuntimeOptions();
  o.session.policy = serve::BackpressurePolicy::kBlock;
  o.session.admission.enabled = false;
  o.num_shards = shards;
  o.store = &*env->store;
  PULSE_ASSIGN_OR_RETURN(env->server, serve::StreamServer::Make(std::move(o)));
  PULSE_RETURN_IF_ERROR(env->server->ListenTcp(0));
  PULSE_ASSIGN_OR_RETURN(
      std::unique_ptr<serve::Transport> transport,
      serve::TcpConnect("127.0.0.1", env->server->tcp_port()));
  PULSE_ASSIGN_OR_RETURN(env->client,
                         OpenSession(std::move(transport), "objects"));
  return env;
}

struct Query {
  Key key = 0;
  double lo = 0.0;
  double hi = 0.0;
  store::RangeAggregate answer;
};

struct RoundResult {
  Status status;
  double seconds = 0.0;
  uint64_t output_hash = 0;
  std::vector<double> query_ms;
  std::vector<double> late_ms;
  std::vector<Query> sampled;
};

/// The no-index answer: every timeline segment clipped to [lo, hi] with
/// the store's closed-range convention.
store::RangeAggregate ScanTimeline(const std::vector<Segment>& timeline,
                                   double lo, double hi) {
  store::RangeAggregate out;
  for (const Segment& seg : timeline) {
    if (seg.range.hi <= lo) continue;
    if (seg.range.lo > hi) break;
    auto it = seg.attributes.find("x");
    if (it == seg.attributes.end()) continue;
    out.Combine(store::AggregatePolynomial(it->second,
                                           std::max(seg.range.lo, lo),
                                           std::min(seg.range.hi, hi)));
  }
  return out;
}

RoundResult RunRound(Env* env, const IngestInput& input, uint64_t query_seed,
                     Tracer* tracer) {
  RoundResult result;
  std::vector<Segment> outputs;
  Status send_status, read_status;
  std::atomic<bool> reader_done{false};
  int64_t end_ns = 0;
  const int64_t start = NowNs();

  std::thread sender([&] {
    SpanBuffer* spans = tracer->NewBuffer();
    ScopedSpan whole(spans, "serve.sender");
    for (size_t i = 0; i < input.segments.size() && send_status.ok(); ++i) {
      // One segment per frame: a sample of the frames keeps the span
      // file small.
      ScopedSpan send(i % kSpanSample == 0 ? spans : nullptr,
                      "serve.client_send", whole.id(), i + 1);
      send_status = env->client->SendSegment(1, input.segments[i]);
    }
    if (send_status.ok()) send_status = SendDrain(env->client.get());
    if (!send_status.ok()) env->client->transport()->Close();
  });
  std::thread reader([&] {
    SpanBuffer* spans = tracer->NewBuffer();
    ScopedSpan whole(spans, "serve.reader");
    read_status = ReadUntilDrained(
        env->client.get(),
        [&](Segment&& s, int64_t) -> uint64_t {
          outputs.push_back(std::move(s));
          return 0;
        },
        spans, whole.id());
    // A failed reader unblocks a sender stuck on backpressure.
    if (!read_status.ok()) env->client->transport()->Close();
    end_ns = NowNs();
    reader_done.store(true);
  });
  std::thread querier([&] {
    SpanBuffer* spans = tracer->NewBuffer();
    Rng rng(query_seed);
    const double period_ns = 1e9 / kQueryRate;
    const int64_t t0 = start + 1000000;
    for (uint64_t k = 0; !reader_done.load(); ++k) {
      const int64_t due =
          t0 + static_cast<int64_t>(static_cast<double>(k) * period_ns);
      SleepUntilNs(due);
      const int64_t begin = NowNs();
      result.late_ms.push_back(static_cast<double>(begin - due) / 1e6);
      const size_t appended =
          std::min<size_t>(env->appends->value(), input.segments.size());
      const double closed = input.closed_before[appended];
      Query q;
      q.key = static_cast<Key>(rng.UniformInt(0, kKeys - 1));
      if (std::isfinite(closed) && closed > 0.0) {
        const double width = rng.Uniform(0.0, 0.1 * closed);
        q.lo = rng.Uniform(0.0, closed - width);
        q.hi = std::min(q.lo + width, std::nextafter(closed, 0.0));
      } else {
        // No closed history yet: a range before the first segment.
        q.lo = -2.0;
        q.hi = -1.0;
      }
      q.answer = env->store->QueryRange("objects", q.key, "x", q.lo, q.hi);
      const int64_t done = NowNs();
      if (spans != nullptr) {
        spans->Add("driver.query_wait", due, begin, 0, k + 1);
        spans->Add("store.query", begin, done, 0, k + 1);
      }
      result.query_ms.push_back(static_cast<double>(done - due) / 1e6);
      if (k % kVerifyEvery == 0) result.sampled.push_back(q);
    }
  });
  sender.join();
  reader.join();
  querier.join();
  (void)env->client->Bye();
  env->server->Drain();
  result.status = !send_status.ok() ? send_status : read_status;
  result.seconds = static_cast<double>(end_ns - start) / 1e9;
  result.output_hash = HashSegments(outputs);
  return result;
}

/// Sampled query answers against a scan of the drained timelines.
bool QueriesMatch(const store::SegmentStore& st,
                  const std::vector<Query>& queries) {
  for (const Query& q : queries) {
    const std::vector<Segment>* timeline = st.Timeline("objects", q.key);
    const store::RangeAggregate want =
        timeline == nullptr ? store::RangeAggregate{}
                            : ScanTimeline(*timeline, q.lo, q.hi);
    const double scale = std::max(1.0, std::fabs(want.integral));
    if (want.count != q.answer.count ||
        std::fabs(want.integral - q.answer.integral) > 1e-9 * scale) {
      return false;
    }
  }
  return true;
}

Result<uint64_t> ReplayHash(const IngestInput& input) {
  PULSE_ASSIGN_OR_RETURN(HistoricalRuntime rt,
                         HistoricalRuntime::Make(Spec(), RuntimeOptions()));
  for (const Segment& s : input.segments) {
    PULSE_RETURN_IF_ERROR(rt.ProcessSegment("objects", s));
  }
  PULSE_RETURN_IF_ERROR(rt.Finish());
  return HashSegments(rt.TakeOutputSegments());
}

}  // namespace

RunResult RunIngestDurable(const Args& args, Tracer* tracer) {
  RunResult result;
  const size_t shards = Nproc();
  const size_t count = args.smoke ? kSmokeRoundSegments : kRoundSegments;
  const std::string base =
      WorkDir() + "/store-" + std::to_string(::getpid()) + "-";
  auto fail = [&](const std::string& what, const Status& s) {
    result.notes.push_back(what + ": " + s.ToString());
    return result;
  };

  // Set-up: fit the segments, open the store, start the server, connect.
  std::vector<double> setup_s;
  IngestInput input;
  std::unique_ptr<Env> env;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (env != nullptr) {
      (void)env->client->Bye();
      env.reset();
    }
    const int64_t t = NowNs();
    Result<IngestInput> fitted = FitSegments(args.seed, count);
    if (!fitted.ok()) return fail("fit", fitted.status());
    input = std::move(*fitted);
    Result<std::unique_ptr<Env>> started = StartEnv(base + "0", shards);
    if (!started.ok()) return fail("start", started.status());
    env = std::move(*started);
    setup_s.push_back(static_cast<double>(NowNs() - t) / 1e9);
  }

  Result<uint64_t> expected = ReplayHash(input);
  if (!expected.ok()) return fail("replay", expected.status());

  Tracer off(false);
  const int64_t end = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  std::vector<double> throughput, traced_throughput, query_ms, late_ms,
      recover_s, steal;
  std::vector<std::vector<double>> round_query_ms;  // untraced rounds
  bool verified = true;
  size_t rounds = 0;
  uint64_t recovered_records = 0;
  for (int r = 0; r < 3 || NowNs() < end; ++r, ++rounds) {
    if (r > 0) {
      Result<std::unique_ptr<Env>> started =
          StartEnv(base + std::to_string(r), shards);
      if (!started.ok()) return fail("start", started.status());
      env = std::move(*started);
    }
    const bool traced = args.trace && r % 2 == 1;
    const RoundClock clock;
    RoundResult round =
        RunRound(env.get(), input, DeriveSeed(args.seed, 500 + r),
                 traced ? tracer : &off);
    if (!round.status.ok()) return fail("round", round.status);
    (traced ? traced_throughput : throughput)
        .push_back(static_cast<double>(count) / round.seconds);
    if (!traced) {
      steal.push_back(clock.StealFraction());
      round_query_ms.push_back(round.query_ms);
    }
    query_ms.insert(query_ms.end(), round.query_ms.begin(),
                    round.query_ms.end());
    late_ms.insert(late_ms.end(), round.late_ms.begin(), round.late_ms.end());
    if (round.output_hash != *expected) {
      verified = false;
      result.notes.push_back("round " + std::to_string(r) +
                             ": served output differs from the replay");
    }
    if (!QueriesMatch(*env->store, round.sampled)) {
      verified = false;
      result.notes.push_back("round " + std::to_string(r) +
                             ": a query answer differs from the timeline scan");
    }
    if (args.trace && r == 0) {
      SetServerMetrics(*env->server, round.seconds, &result.metrics);
      const obs::MetricsSnapshot snap = env->store->metrics()->Snapshot();
      const obs::HistogramStats append = HistOf(snap, "span/store/append");
      result.metrics.Set("store.append_us_p50", append.p50 / 1e3, "us");
      result.metrics.Set("store.append_us_p99", append.p99 / 1e3, "us");
      const double queries =
          static_cast<double>(CounterOf(snap, "store/tree_queries"));
      result.metrics.Set("store.tree_queries", queries, "count");
      result.metrics.Set(
          "store.rebuilds_per_query",
          Ratio(static_cast<double>(CounterOf(snap, "store/tree_rebuilds")),
                queries),
          "ratio");
      result.metrics.Set(
          "store.append_bytes_per_segment",
          Ratio(static_cast<double>(CounterOf(snap, "store/append_bytes")),
                static_cast<double>(CounterOf(snap, "store/appends"))),
          "bytes");
    }

    // Recovery of the drained directory, with the writer closed first.
    const std::string dir = env->dir;
    env.reset();
    shard::ShardedRuntimeOptions ropts;
    ropts.num_shards = shards;
    ropts.runtime = RuntimeOptions();
    {
      store::StoreOptions store_options;
      store_options.dir = dir;
      const int64_t t = NowNs();
      Result<store::RecoveredSharded> recovered = store::RecoverSharded(
          Spec(), std::move(ropts), std::move(store_options));
      recover_s.push_back(static_cast<double>(NowNs() - t) / 1e9);
      if (!recovered.ok()) return fail("recover", recovered.status());
      recovered_records = recovered->store.log_records();
      if (!recovered->state_verified || !recovered->report.clean() ||
          recovered_records != count) {
        verified = false;
        result.notes.push_back("recovery: " + recovered->report.ToString() +
                               " " + recovered->verify_detail);
      }
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  const double late_p99 = Percentile(late_ms, 99);
  const bool valid = late_p99 <= kLateLimitMs;
  result.correct = verified && valid;
  result.attempted = static_cast<uint64_t>(count * rounds + query_ms.size());
  result.failed = verified ? 0 : result.attempted;
  char note[256];
  std::snprintf(note, sizeof(note),
                "%zu rounds of %zu segments verified=%d; %zu queries; "
                "generator late p99 %.3f ms%s",
                rounds, count, verified ? 1 : 0, query_ms.size(), late_p99,
                valid ? "" : " (INVALID: generator fell behind)");
  result.notes.push_back(note);
  result.notes.push_back("round throughput " + MinMedianMax(throughput));
  result.notes.push_back("round steal fraction " + MinMedianMax(steal) +
                         ", " + std::to_string(UnstolenRounds(steal).size()) +
                         " rounds kept");
  result.notes.push_back("query ms " + Quantiles(query_ms));
  result.notes.push_back("recover s " + MinMedianMax(recover_s));

  if (!args.trace) {
    result.metrics.Set("throughput_per_s", UnstolenMedian(throughput, steal),
                       "1/s");
    result.metrics.Set("answer_p50_ms",
                       UnstolenMedianPercentile(round_query_ms, steal, 50),
                       "ms");
    result.metrics.Set("answer_p90_ms",
                       UnstolenMedianPercentile(round_query_ms, steal, 90),
                       "ms");
    result.metrics.Set("setup_s", Median(setup_s), "s");
    return result;
  }
  const double rec = Median(recover_s);
  result.metrics.Set("store.recover_s", rec, "s");
  result.metrics.Set("store.recover_records_per_s",
                     Ratio(static_cast<double>(recovered_records), rec), "1/s");
  result.metrics.Set("serve.client_send_us_p99",
                     Percentile(tracer->Durations("serve.client_send"), 99) / 1e3,
                     "us");
  result.metrics.Set("serve.client_read_us_p50",
                     Percentile(tracer->Durations("serve.client_read"), 50) / 1e3,
                     "us");
  result.metrics.Set("driver.late_p99_ms", late_p99, "ms");
  result.metrics.Set("obs.trace_overhead_frac",
                     1.0 - Ratio(Median(traced_throughput), Median(throughput)),
                     "fraction");
  return result;
}

}  // namespace e2e
