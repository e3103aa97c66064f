/* pulse_cli — run an ad-hoc StreamSQL query over a built-in workload.
 *
 *   pulse_cli --workload objects|nyse|ais|telemetry --tuples N
 *             --query "select * from objects where x < 500"
 *             [--mode predictive|historical] [--bound attr=0.01]
 *             [--sample-rate HZ] [--show K]
 *
 * --sample-rate samples predictive outputs into tuples; it is an
 * argument error in every other mode.
 *
 * Serve mode's --policy picks the session queue's backpressure policy
 * (docs/SERVING.md). block (the default) is lossless: the server stops
 * reading until its queue has room, so the client's sends wait and
 * every sent tuple is accepted. drop_oldest evicts the oldest queued
 * frames to admit a new one. shed rejects a frame that does not fit
 * and also turns on load shedding, which refuses frames under queue
 * or solver-latency pressure; only shed runs admission control.
 *
 * Examples:
 *   pulse_cli --workload nyse --tuples 50000 --bound s.ap=0.01 --query \
 *     "select symbol, s.ap - l.ap as diff from (select symbol, avg(price) \
 *      as ap from nyse [size 10 advance 2]) as s join (select symbol, \
 *      avg(price) as ap from nyse [size 60 advance 2]) as l on \
 *      (s.symbol = l.symbol) where s.ap > l.ap"
 *
 *   pulse_cli --workload objects --mode historical --tuples 100000 \
 *     --query "select * from objects where x < 2000"
 *
 *   # Full serving stack: StreamServer session over the in-process
 *   # transport (or loopback TCP with --port), paced replay, drain.
 *   pulse_cli --workload objects --mode serve --tuples 20000 \
 *     --policy drop_oldest --rate 50000 \
 *     --query "select * from objects where x < 2000"
 *
 *   # Adaptive precision (docs/PRECISION.md): the session widens the
 *   # error budget under load, emits provisional answers, and settles
 *   # them as confirm/retract at drain. --tier 1 pins the widened tier
 *   # so the side-band is exercised deterministically.
 *   pulse_cli --workload objects --mode serve --tuples 20000 \
 *     --precision adaptive --tier 1 \
 *     --query "select * from objects where x < 2000"
 *
 *   # Durable serving: admitted inputs land in DIR/segments.log before
 *   # dispatch, the drain seals a checkpoint, and a later --recover
 *   # replays the log into a fresh runtime and prints the recovery
 *   # report (docs/STORAGE.md).
 *   pulse_cli --workload objects --mode serve --tuples 20000 \
 *     --store-dir ./pulse_store \
 *     --query "select * from objects where x < 2000"
 *   pulse_cli --workload objects --recover --store-dir ./pulse_store \
 *     --query "select * from objects where x < 2000"
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "core/parser.h"
#include "core/runtime.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/tcp_transport.h"
#include "store/recovery.h"
#include "store/store.h"
#include "util/cpu_features.h"
#include "util/stopwatch.h"
#include "workload/ais.h"
#include "workload/moving_object.h"
#include "workload/nyse.h"
#include "workload/replay.h"
#include "workload/telemetry.h"

using namespace pulse;

namespace {

struct CliOptions {
  std::string workload = "objects";
  std::string query;
  std::string mode = "predictive";
  size_t tuples = 10000;
  double sample_rate = 0.0;
  size_t show = 5;
  std::vector<BoundSpec> bounds;
  // serve mode only:
  std::string policy = "block";
  double rate = 0.0;  // paced replay tuples/second; 0 = unpaced
  int port = -1;      // >= 0: loopback TCP instead of in-process
  // adaptive precision (serve mode only; docs/PRECISION.md):
  std::string precision = "static";
  int tier = -1;  // >= 0 pins the precision tier (deterministic runs)
  // durable store (serve mode and --recover):
  std::string store_dir;
  bool recover = false;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --query SQL [--workload objects|nyse|ais|telemetry] "
      "[--tuples N]\n"
      "          [--mode predictive|historical|serve] [--bound attr=frac]...\n"
      "          [--sample-rate HZ (predictive only)] [--show K]\n"
      "          [--policy block|drop_oldest|shed] [--rate TPS] [--port P]\n"
      "          [--precision static|adaptive] [--tier N]\n"
      "          [--store-dir DIR] [--recover]\n",
      argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, CliOptions* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      const char* v = next("--workload");
      if (v == nullptr) return false;
      out->workload = v;
    } else if (arg == "--query") {
      const char* v = next("--query");
      if (v == nullptr) return false;
      out->query = v;
    } else if (arg == "--mode") {
      const char* v = next("--mode");
      if (v == nullptr) return false;
      out->mode = v;
    } else if (arg == "--tuples") {
      const char* v = next("--tuples");
      if (v == nullptr) return false;
      out->tuples = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--sample-rate") {
      const char* v = next("--sample-rate");
      if (v == nullptr) return false;
      out->sample_rate = std::strtod(v, nullptr);
    } else if (arg == "--show") {
      const char* v = next("--show");
      if (v == nullptr) return false;
      out->show = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--policy") {
      const char* v = next("--policy");
      if (v == nullptr) return false;
      out->policy = v;
    } else if (arg == "--rate") {
      const char* v = next("--rate");
      if (v == nullptr) return false;
      out->rate = std::strtod(v, nullptr);
    } else if (arg == "--port") {
      const char* v = next("--port");
      if (v == nullptr) return false;
      out->port = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (arg == "--precision") {
      const char* v = next("--precision");
      if (v == nullptr) return false;
      out->precision = v;
    } else if (arg.rfind("--precision=", 0) == 0) {
      out->precision = arg.substr(std::strlen("--precision="));
    } else if (arg == "--tier") {
      const char* v = next("--tier");
      if (v == nullptr) return false;
      out->tier = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (arg == "--store-dir") {
      const char* v = next("--store-dir");
      if (v == nullptr) return false;
      out->store_dir = v;
    } else if (arg == "--recover") {
      out->recover = true;
    } else if (arg == "--bound") {
      const char* v = next("--bound");
      if (v == nullptr) return false;
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr) {
        std::fprintf(stderr, "--bound expects attr=fraction\n");
        return false;
      }
      out->bounds.push_back(BoundSpec::Relative(
          std::string(v, eq - v), std::strtod(eq + 1, nullptr)));
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return !out->query.empty();
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) return Usage(argv[0]);
  if (options.sample_rate != 0.0 &&
      (options.mode != "predictive" || options.recover)) {
    std::fprintf(stderr, "--sample-rate applies to --mode predictive only\n");
    return Usage(argv[0]);
  }

  // Declare the chosen workload's stream and build a tuple source.
  QuerySpec spec;
  std::function<Tuple()> source;
  std::string stream_name = options.workload;
  if (options.workload == "objects") {
    (void)spec.AddStream(
        MovingObjectGenerator::MakeStreamSpec("objects", 5.0));
    auto gen = std::make_shared<MovingObjectGenerator>(MovingObjectOptions{});
    source = [gen] { return gen->NextTuple(); };
  } else if (options.workload == "nyse") {
    (void)spec.AddStream(NyseGenerator::MakeStreamSpec("nyse", 5.0));
    auto gen = std::make_shared<NyseGenerator>(NyseOptions{});
    source = [gen] { return gen->NextTuple(); };
  } else if (options.workload == "ais") {
    (void)spec.AddStream(AisGenerator::MakeStreamSpec("ais", 30.0));
    auto gen = std::make_shared<AisGenerator>(AisOptions{});
    source = [gen] { return gen->NextTuple(); };
  } else if (options.workload == "telemetry") {
    (void)spec.AddStream(
        TelemetryGenerator::MakeStreamSpec("telemetry", 5.0));
    auto gen = std::make_shared<TelemetryGenerator>(TelemetryOptions{});
    source = [gen] { return gen->NextTuple(); };
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n",
                 options.workload.c_str());
    return Usage(argv[0]);
  }

  Result<QuerySpec::NodeId> sink = QueryParser::Parse(&spec, options.query);
  if (!sink.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 sink.status().ToString().c_str());
    return 1;
  }
  std::printf("parsed query -> %zu operator(s)\n", spec.num_nodes());
  std::printf("solver kernel: %s (detected %s)\n",
              SimdLevelName(ActiveSimdLevel()),
              SimdLevelName(DetectedSimdLevel()));

  Stopwatch watch;
  if (options.recover) {
    if (options.store_dir.empty()) {
      std::fprintf(stderr, "--recover requires --store-dir DIR\n");
      return Usage(argv[0]);
    }
    HistoricalRuntime::Options hopts;
    hopts.segmentation.degree = 1;
    hopts.segmentation.max_error = 0.1;
    hopts.segmentation.max_points_per_segment = 1000;
    Result<store::RecoveredHistorical> rec = store::RecoverHistorical(
        spec, hopts, store::StoreOptions{.dir = options.store_dir});
    if (!rec.ok()) {
      std::fprintf(stderr, "recover failed: %s\n",
                   rec.status().ToString().c_str());
      return 1;
    }
    std::printf("recovery: %s\n", rec->report.ToString().c_str());
    std::printf(
        "state %s; %llu records replayed, %llu outputs already "
        "delivered, %zu pending in %.3f s\n",
        rec->state_verified ? "verified"
                            : ("NOT verified: " + rec->verify_detail).c_str(),
        (unsigned long long)rec->store.log_records(),
        (unsigned long long)rec->report.effective_delivered,
        rec->pending_outputs.size(), watch.ElapsedSeconds());
    for (size_t i = 0;
         i < rec->pending_outputs.size() && i < options.show; ++i) {
      std::printf("  %s\n", rec->pending_outputs[i].ToString().c_str());
    }
    return rec->state_verified ? 0 : 1;
  }
  if (options.mode == "serve") {
    serve::BackpressurePolicy policy;
    if (options.policy == "block") {
      policy = serve::BackpressurePolicy::kBlock;
    } else if (options.policy == "drop_oldest") {
      policy = serve::BackpressurePolicy::kDropOldest;
    } else if (options.policy == "shed") {
      policy = serve::BackpressurePolicy::kShed;
    } else {
      std::fprintf(stderr, "unknown policy '%s'\n", options.policy.c_str());
      return Usage(argv[0]);
    }

    // Durable mode: every admitted input is appended to the store's log
    // before dispatch, and the drain below seals a `finished`
    // checkpoint. The store must outlive the server.
    std::optional<store::SegmentStore> durable;
    if (!options.store_dir.empty()) {
      Result<store::SegmentStore> opened = store::SegmentStore::Open(
          store::StoreOptions{.dir = options.store_dir});
      if (opened.ok()) {
        durable.emplace(std::move(*opened));
      } else {
        // Existing log: reopen through recovery (torn-tail repair +
        // checkpoint reconcile) and keep appending.
        Result<store::RecoveredStore> rec = store::SegmentStore::Recover(
            store::StoreOptions{.dir = options.store_dir});
        if (!rec.ok()) {
          std::fprintf(stderr, "store open failed: %s\n",
                       rec.status().ToString().c_str());
          return 1;
        }
        std::printf("reopened store: %s\n", rec->report.ToString().c_str());
        durable.emplace(std::move(rec->store));
      }
      std::printf("durable store: %s\n", durable->dir().c_str());
    }

    serve::ServerOptions sopts;
    sopts.spec = spec;
    sopts.runtime.segmentation.degree = 1;
    sopts.runtime.segmentation.max_error = 0.1;
    sopts.runtime.segmentation.max_points_per_segment = 1000;
    sopts.session.policy = policy;
    // Load shedding rides only with --policy shed: block and drop_oldest
    // get the queue policy alone, so a block run is lossless however
    // fast the trace is offered (docs/SERVING.md).
    sopts.session.admission.enabled =
        policy == serve::BackpressurePolicy::kShed;
    if (options.precision == "adaptive") {
      // Adaptive precision (docs/PRECISION.md): under pressure the
      // session widens the error budget and emits provisional answers,
      // settling them as confirm/retract after the exact replay.
      // --tier pins the controller for deterministic demonstrations.
      sopts.session.precision.enabled = true;
      sopts.session.precision.forced_tier = options.tier;
    } else if (options.precision != "static") {
      std::fprintf(stderr, "unknown precision mode '%s'\n",
                   options.precision.c_str());
      return Usage(argv[0]);
    }
    if (durable.has_value()) sopts.store = &*durable;
    Result<std::unique_ptr<serve::StreamServer>> server =
        serve::StreamServer::Make(std::move(sopts));
    if (!server.ok()) {
      std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
      return 1;
    }

    Result<std::unique_ptr<serve::Transport>> conn = Status::Internal("");
    if (options.port >= 0) {
      Status listen =
          (*server)->ListenTcp(static_cast<uint16_t>(options.port));
      if (!listen.ok()) {
        std::fprintf(stderr, "%s\n", listen.ToString().c_str());
        return 1;
      }
      const uint16_t port = (*server)->tcp_port();
      std::printf("serving on 127.0.0.1:%u (tcp)\n", port);
      conn = serve::TcpConnect("127.0.0.1", port);
    } else {
      std::printf("serving over the in-process transport\n");
      conn = (*server)->ConnectInProcess();
    }
    if (!conn.ok()) {
      std::fprintf(stderr, "%s\n", conn.status().ToString().c_str());
      return 1;
    }

    // Pre-generate the trace so PacedReplay can pace it.
    std::vector<Tuple> trace;
    trace.reserve(options.tuples);
    for (size_t i = 0; i < options.tuples; ++i) trace.push_back(source());
    PacedReplay replay(std::move(trace), options.rate);

    serve::ServeClient client(std::move(*conn));
    Status st = client.Hello();
    if (st.ok()) st = client.OpenStream(1, stream_name);
    const auto start = std::chrono::steady_clock::now();
    Tuple t;
    uint64_t offset_ns = 0;
    while (st.ok() && replay.Next(&t, &offset_ns)) {
      if (options.rate > 0.0) {
        std::this_thread::sleep_until(
            start + std::chrono::nanoseconds(offset_ns));
      }
      st = client.SendTuple(1, t);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    Result<serve::ServeClient::DrainResult> drained = client.Drain();
    if (!drained.ok()) {
      std::fprintf(stderr, "drain failed: %s\n",
                   drained.status().ToString().c_str());
      return 1;
    }
    (void)client.Bye();
    (*server)->Drain();

    obs::MetricsSnapshot snapshot = (*server)->metrics()->Snapshot();
    std::printf(
        "serve(%s): %llu sent, %llu accepted, %llu dropped, %llu shed, "
        "%zu result segments in %.3f s (%.0f tup/s offered)\n",
        options.policy.c_str(), (unsigned long long)options.tuples,
        (unsigned long long)snapshot.counters["serve/queue/accepted"],
        (unsigned long long)drained->dropped,
        (unsigned long long)drained->shed,
        drained->output_segments.size(), watch.ElapsedSeconds(),
        options.tuples / watch.ElapsedSeconds());
    auto admit = snapshot.histograms.find("span/serve/admit");
    if (admit != snapshot.histograms.end()) {
      std::printf("admission p99: %.0f ns over %llu frames\n",
                  admit->second.p99,
                  (unsigned long long)admit->second.count);
    }
    if (options.precision == "adaptive") {
      // Conservation identity (docs/PRECISION.md): every provisional
      // lineage settles as exactly one confirm or retract by drain.
      const size_t open = drained->provisionals.size() -
                          drained->confirmed.size() -
                          drained->retracted.size();
      std::printf(
          "precision(adaptive): %zu provisional, %zu confirmed, "
          "%zu retracted, %zu open\n",
          drained->provisionals.size(), drained->confirmed.size(),
          drained->retracted.size(), open);
    }
    for (size_t i = 0;
         i < drained->output_segments.size() && i < options.show; ++i) {
      std::printf("  %s\n", drained->output_segments[i].ToString().c_str());
    }
    return 0;
  }
  if (options.mode == "historical") {
    HistoricalRuntime::Options hopts;
    hopts.segmentation.degree = 1;
    hopts.segmentation.max_error = 0.1;
    hopts.segmentation.max_points_per_segment = 1000;
    Result<HistoricalRuntime> rt = HistoricalRuntime::Make(spec, hopts);
    if (!rt.ok()) {
      std::fprintf(stderr, "%s\n", rt.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < options.tuples; ++i) {
      Status st = rt->ProcessTuple(stream_name, source());
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
    }
    (void)rt->Finish();
    const RuntimeStats& stats = rt->stats();
    std::printf(
        "historical: %llu tuples -> %llu segments -> %llu result "
        "segments in %.3f s (%.0f tup/s)\n",
        (unsigned long long)stats.tuples_in,
        (unsigned long long)stats.segments_pushed,
        (unsigned long long)stats.output_segments, watch.ElapsedSeconds(),
        stats.tuples_in / watch.ElapsedSeconds());
    std::vector<Segment> outputs = rt->TakeOutputSegments();
    for (size_t i = 0; i < outputs.size() && i < options.show; ++i) {
      std::printf("  %s\n", outputs[i].ToString().c_str());
    }
    return 0;
  }

  PredictiveRuntime::Options popts;
  popts.bounds = options.bounds;
  popts.sample_rate = options.sample_rate;
  Result<PredictiveRuntime> rt = PredictiveRuntime::Make(spec, popts);
  if (!rt.ok()) {
    std::fprintf(stderr, "%s\n", rt.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < options.tuples; ++i) {
    Status st = rt->ProcessTuple(stream_name, source());
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  (void)rt->Finish();
  const RuntimeStats& stats = rt->stats();
  std::printf(
      "predictive: %llu tuples, %llu validated (%.1f%%), %llu solver "
      "runs, %llu violations, %llu result segments in %.3f s "
      "(%.0f tup/s)\n",
      (unsigned long long)stats.tuples_in,
      (unsigned long long)stats.tuples_validated,
      100.0 * stats.tuples_validated / std::max<uint64_t>(1, stats.tuples_in),
      (unsigned long long)stats.segments_pushed,
      (unsigned long long)stats.violations,
      (unsigned long long)stats.output_segments, watch.ElapsedSeconds(),
      stats.tuples_in / watch.ElapsedSeconds());
  std::vector<Segment> outputs = rt->TakeOutputSegments();
  for (size_t i = 0; i < outputs.size() && i < options.show; ++i) {
    std::printf("  %s\n", outputs[i].ToString().c_str());
  }
  if (options.sample_rate > 0.0) {
    std::vector<Tuple> tuples = rt->TakeOutputTuples();
    std::printf("sampled %zu result tuples\n", tuples.size());
    for (size_t i = 0; i < tuples.size() && i < options.show; ++i) {
      std::printf("  %s\n", tuples[i].ToString().c_str());
    }
  }
  return 0;
}
