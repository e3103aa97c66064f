// Serving-layer throughput: concurrent sessions under each
// backpressure policy.
//
// A StreamServer runs the Fig. 5-style moving-object filter query while
// 16 concurrent in-process sessions each replay a piecewise-linear
// trace through the full serving stack: frame codec -> admission
// control -> the session's bounded queue (one item per frame, capacity
// in tuples) -> dispatch of queued frame runs into the server's shared
// shard pool (per-client runtimes sliced across shards) -> output
// segments framed back to the client. The same offered load is repeated once per backpressure
// policy (block / drop_oldest / shed, admission off so the queue policy
// alone decides what happens at capacity) plus one run with the
// admission controller shedding ahead of the queues. The rows show what
// each policy trades away: block keeps every tuple and pays latency,
// drop_oldest and shed keep latency and pay tuples.
//
// Per policy the JSON row records end-to-end throughput (sent tuples /
// wall seconds), the accepted/dropped/shed accounting from the serve/*
// counters, and the p99 of the per-frame admission path
// (span/serve/admit) — the serving-latency number docs/SERVING.md's
// shedding thresholds are calibrated against. Results go to
// BENCH_serving_throughput.json (schema v2; tests/bench_schema_test.cc
// pins the row fields).
//
// Two extra scenarios exercise the shard-per-core pool under the
// sessions (docs/SHARDING.md): the same block-policy load on a
// multi-key trace at 1 shard and at 4 shards. Keys spread over the
// shards by the routing hash, so on a multi-core host the 4-shard row
// should beat the 1-shard row; on fewer cores the shards time-slice and
// the row's core_bound flag marks the comparison as meaningless.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/query.h"
#include "engine/tuple.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workload/moving_object.h"

namespace pulse {
namespace {

constexpr size_t kSessions = 16;
constexpr size_t kTuplesPerSession = 4000;
constexpr size_t kSendChunk = 64;  // tuples per kTupleBatch frame

// `num_keys` > 1 gives the sharded scenarios something to partition:
// entity ids cycle 1..num_keys, so the routing hash spreads the
// per-key model state across the pool's shards.
std::vector<Tuple> MakeTrace(size_t num_keys) {
  std::vector<Tuple> trace;
  trace.reserve(kTuplesPerSession);
  for (size_t i = 0; i < kTuplesPerSession; ++i) {
    const double t = i * 0.05;
    // Triangle wave: the segmenter closes a piece at every knee.
    const double phase = std::fmod(t, 15.0);
    const double x = phase < 7.5 ? 2.0 * phase : 30.0 - 2.0 * phase;
    const auto key = static_cast<int64_t>(1 + i % num_keys);
    trace.push_back(Tuple(
        t, {Value(key), Value(x), Value(0.0), Value(0.0), Value(0.0)}));
  }
  return trace;
}

QuerySpec MakeFilterSpec() {
  QuerySpec spec;
  (void)spec.AddStream(MovingObjectGenerator::MakeStreamSpec("objects", 5.0));
  FilterSpec filter;
  filter.predicate = Predicate::Comparison(ComparisonTerm::Simple(
      AttrRef::Left("x"), CmpOp::kLt, Operand::Constant(10.0)));
  spec.AddFilter("f", QuerySpec::Input::Stream("objects"), filter);
  return spec;
}

struct PolicyResult {
  std::string policy;
  size_t num_shards = 1;
  double seconds = 0.0;
  double tuples_per_sec = 0.0;
  uint64_t sent = 0;
  uint64_t accepted = 0;
  uint64_t dropped = 0;
  uint64_t shed = 0;
  uint64_t output_segments = 0;
  double admit_p99_ns = 0.0;
  obs::MetricsSnapshot metrics;
  bool ok = false;
};

PolicyResult RunPolicy(serve::BackpressurePolicy policy,
                       bool admission_enabled, size_t num_shards,
                       const std::string& label,
                       const std::vector<Tuple>& trace) {
  PolicyResult result;
  result.policy = serve::BackpressurePolicyToString(policy);
  if (admission_enabled) result.policy += "+admission";
  result.policy += label;
  result.num_shards = num_shards;
  result.sent = kSessions * trace.size();

  serve::ServerOptions options;
  options.spec = MakeFilterSpec();
  options.runtime.segmentation.degree = 1;
  options.runtime.segmentation.max_error = 0.05;
  options.session.policy = policy;
  options.session.queue_capacity = 128;
  options.session.admission.enabled = admission_enabled;
  options.num_shards = num_shards;
  Result<std::unique_ptr<serve::StreamServer>> server =
      serve::StreamServer::Make(std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "server setup failed: %s\n",
                 server.status().ToString().c_str());
    return result;
  }

  std::vector<std::unique_ptr<serve::Transport>> transports;
  for (size_t i = 0; i < kSessions; ++i) {
    Result<std::unique_ptr<serve::Transport>> conn =
        (*server)->ConnectInProcess();
    if (!conn.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   conn.status().ToString().c_str());
      return result;
    }
    transports.push_back(std::move(*conn));
  }

  std::vector<uint64_t> outputs(kSessions, 0);
  std::vector<bool> session_ok(kSessions, false);
  result.seconds = bench::MeasureSeconds([&] {
    std::vector<std::thread> clients;
    clients.reserve(kSessions);
    for (size_t i = 0; i < kSessions; ++i) {
      clients.emplace_back([&, i] {
        serve::ServeClient client(std::move(transports[i]));
        if (!client.Hello().ok()) return;
        if (!client.OpenStream(1, "objects").ok()) return;
        for (size_t off = 0; off < trace.size(); off += kSendChunk) {
          const size_t n = std::min(kSendChunk, trace.size() - off);
          std::vector<Tuple> chunk(trace.begin() + off,
                                   trace.begin() + off + n);
          if (!client.SendBatch(1, chunk).ok()) return;
        }
        Result<serve::ServeClient::DrainResult> drained = client.Drain();
        if (!drained.ok()) return;
        outputs[i] = drained->output_segments.size();
        (void)client.Bye();
        session_ok[i] = true;
      });
    }
    for (std::thread& t : clients) t.join();
    (*server)->Drain();
  });

  result.metrics = (*server)->Snapshot();
  result.accepted = result.metrics.counters["serve/queue/accepted"];
  result.dropped = result.metrics.counters["serve/queue/dropped"];
  result.shed = result.metrics.counters["serve/queue/shed"];
  auto it = result.metrics.histograms.find("span/serve/admit");
  if (it != result.metrics.histograms.end()) {
    result.admit_p99_ns = it->second.p99;
  }
  for (uint64_t n : outputs) result.output_segments += n;
  result.tuples_per_sec =
      static_cast<double>(result.sent) / result.seconds;
  result.ok = true;
  for (size_t i = 0; i < kSessions; ++i) {
    if (!session_ok[i]) {
      std::fprintf(stderr, "session %zu did not complete cleanly\n", i);
      result.ok = false;
    }
  }
  return result;
}

}  // namespace
}  // namespace pulse

int main(int argc, char** argv) {
  using namespace pulse;
  std::printf(
      "Serving throughput: %zu concurrent sessions x %zu tuples, "
      "moving-object filter\n",
      kSessions, kTuplesPerSession);

  const std::vector<Tuple> trace = MakeTrace(1);
  const std::vector<Tuple> multikey_trace = MakeTrace(8);
  bench::SeriesTable table(
      "Serving throughput by backpressure policy", "policy_index",
      {"tuples_per_sec", "accepted", "dropped", "shed", "admit_p99_ns"});

  std::vector<PolicyResult> results;
  // Three pure-policy runs (admission off: the queue policy alone
  // decides what happens at capacity — block stays lossless), then one
  // run with the admission controller shedding ahead of the queues,
  // then the sharded pair: the same block-policy load on an 8-key trace
  // at 1 shard and at 4 shards (only the shard count varies).
  const struct {
    serve::BackpressurePolicy policy;
    bool admission;
    size_t num_shards;
    const char* label;
    const std::vector<Tuple>* trace;
  } scenarios[] = {
      {serve::BackpressurePolicy::kBlock, false, 1, "", &trace},
      {serve::BackpressurePolicy::kDropOldest, false, 1, "", &trace},
      {serve::BackpressurePolicy::kShed, false, 1, "", &trace},
      {serve::BackpressurePolicy::kBlock, true, 1, "", &trace},
      {serve::BackpressurePolicy::kBlock, false, 1, "+multikey",
       &multikey_trace},
      {serve::BackpressurePolicy::kBlock, false, 4, "+multikey+shards4",
       &multikey_trace},
  };
  constexpr size_t kNumScenarios = sizeof(scenarios) / sizeof(scenarios[0]);
  for (size_t i = 0; i < kNumScenarios; ++i) {
    PolicyResult r =
        RunPolicy(scenarios[i].policy, scenarios[i].admission,
                  scenarios[i].num_shards, scenarios[i].label,
                  *scenarios[i].trace);
    if (!r.ok) return 1;
    std::printf("  %-12s %.0f tuples/s, accepted=%llu dropped=%llu "
                "shed=%llu, admit p99 %.0f ns\n",
                r.policy.c_str(), r.tuples_per_sec,
                static_cast<unsigned long long>(r.accepted),
                static_cast<unsigned long long>(r.dropped),
                static_cast<unsigned long long>(r.shed), r.admit_p99_ns);
    table.AddRow(static_cast<double>(i),
                 {r.tuples_per_sec, static_cast<double>(r.accepted),
                  static_cast<double>(r.dropped),
                  static_cast<double>(r.shed), r.admit_p99_ns});
    results.push_back(std::move(r));
  }
  table.Print();

  bench::BenchReport report("serving_throughput");
  report.ParamString("workload", "moving_object_filter");
  report.ParamUint("sessions", kSessions);
  report.ParamUint("tuples_per_session", kTuplesPerSession);
  report.ParamUint("send_chunk", kSendChunk);
  report.ParamUint("queue_capacity", 128);
  report.ParamUint("multikey_keys", 8);
  report.ParamUint("hardware_concurrency", bench::HardwareConcurrency());
  for (const PolicyResult& r : results) {
    report.AddRow()
        .String("policy", r.policy)
        .Uint("num_shards", r.num_shards)
        .Double("seconds", r.seconds)
        .Double("tuples_per_sec", r.tuples_per_sec)
        .Uint("sent", r.sent)
        .Uint("accepted", r.accepted)
        .Uint("dropped", r.dropped)
        .Uint("shed", r.shed)
        .Uint("output_segments", r.output_segments)
        .Double("admit_p99_ns", r.admit_p99_ns)
        .Bool("core_bound", bench::CoreBound(r.num_shards));
  }
  // The block-policy run's registry: the lossless configuration whose
  // serve/queue/blocked_ns counter shows the price of keeping every
  // tuple.
  report.AttachMetrics(results.front().metrics);
  if (!report.WriteFile("BENCH_serving_throughput.json")) return 1;
  std::printf(
      "\nWrote BENCH_serving_throughput.json. Expected shape: block "
      "accepts everything\n(accepted == sent) at the lowest throughput; "
      "drop_oldest and shed trade tuples\nfor latency when the offered "
      "rate beats the per-session solver; block+admission\nsheds ahead "
      "of the queues when the host is overloaded.\n");
  if (!bench::HandleMetricsOutFlag(argc, argv, results.front().metrics)) {
    return 1;
  }
  return 0;
}
