// Telemetry detection-latency benchmark: the four Sonata-style
// epoch/distinct detection queries (SYN flood, port scan, DDoS victim,
// super-spreader) run end to end over seeded TelemetryGenerator traces,
// on both realizations:
//
//   discrete  BuildDiscretePlan -> Executor over the sampled tuples
//             (the ground-truth path: every tuple evaluated)
//   pulse     PredictiveRuntime (models fitted online from the
//             value/derivative fields, epoch/distinct over segments)
//
// Detection latency for one attack is the first alert for the attacked
// host minus the attack's ground-truth onset — the time the pipeline
// needed to notice the ramp. Each query row aggregates the latencies of
// every attack of its kind across kTrials independently seeded traces
// and reports p50/p95/p99 plus throughput (trace tuples / wall seconds
// of the full run, setup + feed + finish).
//
// Everything here is single-threaded by design (one runtime per query
// per trial, fed in arrival order), so tuples_per_sec compares the
// per-core cost of the two realizations; core_bound marks rows where
// the host had fewer cores than the run wanted (always 1 wanted here,
// so the flag only trips on hosts that cannot even give us that).
// Results go to BENCH_telemetry.json (schema v2;
// tests/bench_schema_test.cc pins the row fields and scripts/check.sh
// gates regressions on it).
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/runtime.h"
#include "core/transform.h"
#include "engine/executor.h"
#include "engine/tuple.h"
#include "workload/telemetry.h"

namespace pulse {
namespace {

constexpr size_t kTrials = 5;
constexpr uint64_t kBaseSeed = 7100;

TelemetryOptions TraceOptions(uint64_t seed) {
  TelemetryOptions o;
  o.num_hosts = 32;
  o.tuple_rate = 500.0;
  o.duration = 16.0;
  o.syn_floods = 3;
  o.port_scans = 3;
  o.ddos_victims = 3;
  o.super_spreaders = 3;
  o.attack_duration = 3.0;
  o.seed = seed;
  return o;
}

using QueryBuilder = Result<QuerySpec::NodeId> (*)(
    QuerySpec*, const TelemetryQueryParams&);

struct QueryCase {
  const char* name;
  QueryBuilder add;
  AttackEvent::Kind kind;
};

const QueryCase kQueries[] = {
    {"syn_flood", AddSynFloodQuery, AttackEvent::Kind::kSynFlood},
    {"port_scan", AddPortScanQuery, AttackEvent::Kind::kPortScan},
    {"ddos_victim", AddDdosVictimQuery, AttackEvent::Kind::kDdosVictim},
    {"super_spreader", AddSuperSpreaderQuery,
     AttackEvent::Kind::kSuperSpreader},
};

// host -> earliest alert time, from whichever realization ran.
using AlertMap = std::map<int64_t, double>;

bool RunDiscrete(QueryBuilder add, const TelemetryQueryParams& params,
                 const std::vector<Tuple>& trace, AlertMap* alerts) {
  QuerySpec spec;
  if (!spec.AddStream(TelemetryGenerator::MakeStreamSpec("telemetry", 5.0))
           .ok()) {
    return false;
  }
  if (!add(&spec, params).ok()) return false;
  Result<DiscretePlan> plan = BuildDiscretePlan(spec);
  if (!plan.ok()) return false;
  Result<Executor> exec = Executor::Make(std::move(plan->plan));
  if (!exec.ok()) return false;
  for (const Tuple& t : trace) {
    if (!exec->PushTuple("telemetry", t).ok()) return false;
  }
  if (!exec->Finish().ok()) return false;
  for (const Tuple& t : exec->output()) {
    const int64_t host = t.at(0).as_int64();
    auto [it, inserted] = alerts->emplace(host, t.timestamp);
    if (!inserted && t.timestamp < it->second) it->second = t.timestamp;
  }
  return true;
}

bool RunPulse(QueryBuilder add, const TelemetryQueryParams& params,
              const std::vector<Tuple>& trace, AlertMap* alerts) {
  QuerySpec spec;
  if (!spec.AddStream(TelemetryGenerator::MakeStreamSpec("telemetry", 5.0))
           .ok()) {
    return false;
  }
  if (!add(&spec, params).ok()) return false;
  Result<PredictiveRuntime> rt =
      PredictiveRuntime::Make(spec, PredictiveRuntime::Options{});
  if (!rt.ok()) return false;
  for (const Tuple& t : trace) {
    if (!rt->ProcessTuple("telemetry", t).ok()) return false;
  }
  if (!rt->Finish().ok()) return false;
  for (const Segment& s : rt->TakeOutputSegments()) {
    auto [it, inserted] = alerts->emplace(s.key, s.range.lo);
    if (!inserted && s.range.lo < it->second) it->second = s.range.lo;
  }
  return true;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size())));
  return sorted[idx];
}

struct QueryResult {
  std::string query;
  std::string realization;
  size_t tuples = 0;
  double seconds = 0.0;
  size_t attacks = 0;
  size_t detected = 0;
  std::vector<double> latencies_ms;
  bool ok = true;
};

}  // namespace
}  // namespace pulse

int main() {
  using namespace pulse;
  std::printf(
      "Telemetry detection latency: %zu trials x %zu hosts, "
      "4 epoch/distinct queries, discrete vs pulse\n",
      kTrials, TraceOptions(0).num_hosts);

  // (query, realization) -> accumulated result across trials.
  std::vector<QueryResult> results;
  for (const QueryCase& qc : kQueries) {
    for (const char* realization : {"discrete", "pulse"}) {
      QueryResult r;
      r.query = qc.name;
      r.realization = realization;
      results.push_back(std::move(r));
    }
  }

  for (size_t trial = 0; trial < kTrials; ++trial) {
    TelemetryGenerator gen(TraceOptions(kBaseSeed + trial));
    const std::vector<Tuple> trace = gen.GenerateAll();
    for (size_t qi = 0; qi < 4; ++qi) {
      const QueryCase& qc = kQueries[qi];
      std::map<int64_t, double> onsets;
      for (const AttackEvent& a : gen.attacks()) {
        if (a.kind == qc.kind) onsets[a.host] = a.onset;
      }
      for (size_t side = 0; side < 2; ++side) {
        QueryResult& r = results[qi * 2 + side];
        AlertMap alerts;
        bool ok = false;
        const double secs = bench::MeasureSeconds([&] {
          ok = side == 0
                   ? RunDiscrete(qc.add, TelemetryQueryParams{}, trace,
                                 &alerts)
                   : RunPulse(qc.add, TelemetryQueryParams{}, trace,
                              &alerts);
        });
        if (!ok) {
          std::fprintf(stderr, "%s/%s trial %zu failed\n", r.query.c_str(),
                       r.realization.c_str(), trial);
          r.ok = false;
          continue;
        }
        r.tuples += trace.size();
        r.seconds += secs;
        r.attacks += onsets.size();
        for (const auto& [host, onset] : onsets) {
          auto it = alerts.find(host);
          if (it == alerts.end()) {
            std::fprintf(stderr,
                         "MISS %s/%s trial %zu host %lld onset %.2f\n",
                         r.query.c_str(), r.realization.c_str(), trial,
                         static_cast<long long>(host), onset);
            continue;
          }
          ++r.detected;
          // The Pulse side can model ahead of the crossing, so clamp:
          // an alert at (or predicted slightly before) onset is zero
          // latency, not negative.
          r.latencies_ms.push_back(
              std::max(0.0, (it->second - onset) * 1000.0));
        }
      }
    }
  }

  const TelemetryOptions opts = TraceOptions(0);
  bench::BenchReport report("telemetry");
  report.ParamUint("trials", kTrials);
  report.ParamUint("hosts", opts.num_hosts);
  report.ParamDouble("tuple_rate", opts.tuple_rate);
  report.ParamDouble("duration", opts.duration);
  report.ParamDouble("epoch_seconds", TelemetryQueryParams{}.epoch_seconds);
  report.ParamUint("attacks_per_kind", opts.syn_floods);
  report.ParamUint("seed", kBaseSeed);
  report.ParamUint("hardware_concurrency", bench::HardwareConcurrency());

  bool all_ok = true;
  for (QueryResult& r : results) {
    all_ok = all_ok && r.ok;
    std::sort(r.latencies_ms.begin(), r.latencies_ms.end());
    const double p50 = Percentile(r.latencies_ms, 0.50);
    const double p95 = Percentile(r.latencies_ms, 0.95);
    const double p99 = Percentile(r.latencies_ms, 0.99);
    const double tps =
        r.seconds > 0.0 ? static_cast<double>(r.tuples) / r.seconds : 0.0;
    std::printf(
        "  %-14s %-8s %8.0f tuples/s  detected %zu/%zu  "
        "latency p50 %.0f ms  p95 %.0f ms  p99 %.0f ms\n",
        r.query.c_str(), r.realization.c_str(), tps, r.detected, r.attacks,
        p50, p95, p99);
    report.AddRow()
        .String("query", r.query)
        .String("realization", r.realization)
        .Uint("tuples", r.tuples)
        .Double("seconds", r.seconds)
        .Double("tuples_per_sec", tps)
        .Uint("attacks", r.attacks)
        .Uint("detected", r.detected)
        .Double("p50_ms", p50)
        .Double("p95_ms", p95)
        .Double("p99_ms", p99)
        .Bool("core_bound", bench::CoreBound(1));
  }
  if (!all_ok) return 1;
  if (!report.WriteFile("BENCH_telemetry.json")) return 1;
  std::printf(
      "\nWrote BENCH_telemetry.json. Expected shape: every attack "
      "detected\n(detected == attacks); latency well under the attack "
      "ramp+epoch budget\n(crossing happens during the 0.5 s ramp, one "
      "alert per epoch); the pulse\nrealization's percentiles track the "
      "discrete ones at epoch granularity.\n");
  return 0;
}
