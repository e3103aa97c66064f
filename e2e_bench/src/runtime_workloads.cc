// The two workloads that call the runtime API directly, one thread each.
//
// batch_join: the paper's Fig. 7ii proximity self-join in historical
//   mode (32 objects, distance^2 < r^2, 4 s window). Set-up generates
//   the run's inputs once; each round feeds one of them to a fresh
//   HistoricalRuntime, then runs Finish. Pair matching, row gather and
//   the SIMD root kernels do the work.
// predict_macd: the paper's Fig. 9i MACD over 50 NYSE symbols in
//   predictive mode with a 1% bound: the validation cheap path does the
//   work. Rounds of 393,216 trades, fed the same way; a run feeds tens
//   of millions.
//
// Rounds feed the runtime one serving frame's worth of tuples (kChunk)
// per ProcessTuples call. Throughput is input tuples over the timed
// ProcessTuples + Finish calls, median over rounds. An answer's latency
// runs from when the call that produced it was handed its frame to when
// that call returned (one sample per output segment; outputs of the
// final Finish flush are counted apart); a run reports the median
// round's percentiles. Verification replays each input with the scalar
// solver kernels forced (a second realization of every solve) and
// requires byte-identical output, and requires every measured round to
// report its input's reference counts exactly.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <type_traits>

#include "core/runtime.h"
#include "store/checksum.h"
#include "util/cpu_features.h"
#include "workload/moving_object.h"
#include "workload/nyse.h"
#include "workload/queries.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace pulse;

/// Tuples per ProcessTuples call: the frame size serve_filter's clients
/// send.
constexpr size_t kChunk = 64;
constexpr int kSetupReps = 5;
/// Every kSpanSample-th call of a traced round is recorded as a span.
constexpr size_t kSpanSample = 64;
/// Only every kProcessTupleSample-th ProcessTuple call of the traced
/// predictive round is timed individually.
constexpr size_t kProcessTupleSample = 8;

// Fig. 7ii join parameters (bench/bench_solver_hotpath.cc uses the same).
constexpr size_t kJoinObjects = 32;
constexpr double kJoinArea = 1000.0;
constexpr size_t kJoinTuplesPerModel = 40;
constexpr size_t kJoinInputs = 8;
constexpr size_t kJoinRoundTuples = 32768;
constexpr size_t kMacdInputs = 2;
constexpr size_t kMacdRoundTuples = 393216;
constexpr size_t kSmokeJoinTuples = 4096;
/// MACD's 60 s long window needs about 180k trades before it answers.
constexpr size_t kSmokeMacdTuples = 262144;

/// The parts of a workload the generic round loop needs.
template <typename Runtime>
struct Workload {
  const char* stream;
  std::function<QuerySpec()> spec;
  std::function<typename Runtime::Options(bool collect)> options;
  /// How many distinct inputs a run rotates its rounds over, so that a
  /// run samples more of the workload than one seed's trace shows.
  size_t traces;
  /// Generates input `k` (the same on every call).
  std::function<std::vector<Tuple>(size_t k)> trace;
};

struct Round {
  double timed_s = 0.0;
  double cpu_ns = 0.0;  // process CPU over the round's calls
  std::vector<double> answer_ms;  // one entry per output segment
  uint64_t flushed_outputs = 0;    // outputs of the final Finish
  std::vector<double> process_tuple_ns;
  RuntimeStats stats;
  obs::MetricsSnapshot snapshot;
  uint64_t output_hash = store::kCanonicalHashSeed;
};

/// One round: a fresh runtime over `trace`, fed in kChunk-tuple calls.
/// `spans` (may be null) gets one span per timed call; `per_tuple` times
/// individual ProcessTuple calls instead of whole chunks.
template <typename Runtime>
Result<Round> RunRound(const Workload<Runtime>& w,
                       const std::vector<Tuple>& trace, bool collect,
                       SpanBuffer* spans, bool per_tuple) {
  Round round;
  const QuerySpec spec = w.spec();
  PULSE_ASSIGN_OR_RETURN(Runtime rt, Runtime::Make(spec, w.options(collect)));
  ScopedSpan whole(spans, "core.round");
  int64_t timed_ns = 0;
  const int64_t cpu_start = ProcessCpuNs();
  uint64_t outputs = 0;
  for (size_t done = 0; done < trace.size();) {
    const Tuple* chunk = trace.data() + done;
    const size_t size = std::min(kChunk, trace.size() - done);
    const int64_t t0 = NowNs();
    if (per_tuple) {
      for (size_t i = 0; i < size; ++i) {
        if (i % kProcessTupleSample != 0) {
          PULSE_RETURN_IF_ERROR(rt.ProcessTuple(w.stream, chunk[i]));
          continue;
        }
        const int64_t a = NowNs();
        PULSE_RETURN_IF_ERROR(rt.ProcessTuple(w.stream, chunk[i]));
        round.process_tuple_ns.push_back(static_cast<double>(NowNs() - a));
      }
    } else {
      PULSE_RETURN_IF_ERROR(rt.ProcessTuples(w.stream, chunk, size));
    }
    const int64_t t1 = NowNs();
    if (spans != nullptr && (done / kChunk) % kSpanSample == 0) {
      spans->Add("core.process_tuples", t0, t1, whole.id(), 0);
    }
    const uint64_t now_outputs = rt.stats().output_segments;
    round.answer_ms.insert(round.answer_ms.end(), now_outputs - outputs,
                           static_cast<double>(t1 - t0) / 1e6);
    outputs = now_outputs;
    timed_ns += t1 - t0;
    done += size;
    // Folding outputs as they come keeps memory flat whatever the seed.
    if (collect) {
      round.output_hash = HashSegments(rt.TakeOutputSegments(),
                                       round.output_hash);
    }
  }
  {
    ScopedSpan finish(spans, "core.finish", whole.id());
    const int64_t t0 = NowNs();
    PULSE_RETURN_IF_ERROR(rt.Finish());
    timed_ns += NowNs() - t0;
  }
  round.timed_s = static_cast<double>(timed_ns) / 1e9;
  round.cpu_ns = static_cast<double>(ProcessCpuNs() - cpu_start);
  round.stats = rt.stats();
  round.flushed_outputs = round.stats.output_segments - outputs;
  round.snapshot = rt.metrics()->Snapshot();
  if (collect) {
    round.output_hash =
        HashSegments(rt.TakeOutputSegments(), round.output_hash);
  }
  return round;
}

/// The counts a deterministic round must reproduce exactly.
bool SameCounts(const RuntimeStats& a, const RuntimeStats& b) {
  return a.tuples_in == b.tuples_in &&
         a.tuples_validated == b.tuples_validated &&
         a.violations == b.violations &&
         a.segments_pushed == b.segments_pushed &&
         a.output_segments == b.output_segments;
}

template <typename Runtime>
RunResult RunRuntimeWorkload(const Args& args, Tracer* tracer,
                             const Workload<Runtime>& w) {
  constexpr bool kPredictive = std::is_same_v<Runtime, PredictiveRuntime>;
  RunResult result;
  auto fail = [&](const std::string& what, const Status& s) {
    result.notes.push_back(what + ": " + s.ToString());
    return result;
  };

  // Set-up: generate the rounds' inputs, build the query and a runtime.
  std::vector<double> setup_s;
  std::vector<std::vector<Tuple>> traces;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    traces.clear();
    const int64_t t = NowNs();
    for (size_t k = 0; k < w.traces; ++k) traces.push_back(w.trace(k));
    Result<Runtime> rt = Runtime::Make(w.spec(), w.options(false));
    if (!rt.ok()) return fail("runtime", rt.status());
    setup_s.push_back(static_cast<double>(NowNs() - t) / 1e9);
  }

  // Rounds come in pairs (an untraced and, in a traced run, a traced
  // one) over the same input on the same CPU. Pairs cycle through the
  // inputs, and each cycle moves to the next CPU, so every run samples
  // every input on every CPU, whatever shares its core.
  const std::vector<Tuple>& trace = traces.front();
  const double n = static_cast<double>(trace.size());
  const int64_t end = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  std::vector<Round> rounds;
  std::vector<size_t> round_trace;
  std::vector<double> throughput, traced_throughput, cpu_per_tuple, steal;
  std::vector<std::vector<double>> answer_ms_per_round;  // untraced rounds
  Round per_tuple_round;
  for (int r = 0; r < 3 || NowNs() < end; ++r) {
    const bool traced = args.trace && r % 2 == 1;
    const size_t pair = static_cast<size_t>(r / 2);
    const size_t k = pair % traces.size();
    PinToCpu(static_cast<int>(pair / traces.size()));
    const RoundClock clock;
    Result<Round> round = RunRound(w, traces[k], /*collect=*/false,
                                   traced ? tracer->NewBuffer() : nullptr,
                                   /*per_tuple=*/false);
    PinToCpu(-1);
    if (!round.ok()) return fail("round", round.status());
    (traced ? traced_throughput : throughput).push_back(n / round->timed_s);
    if (!traced) {
      steal.push_back(clock.StealFraction());
      answer_ms_per_round.push_back(std::move(round->answer_ms));
      cpu_per_tuple.push_back(round->cpu_ns / n);
    }
    round->answer_ms.clear();
    rounds.push_back(std::move(*round));
    round_trace.push_back(k);
  }
  if (args.trace && kPredictive) {
    Result<Round> round =
        RunRound(w, trace, false, nullptr, /*per_tuple=*/true);
    if (!round.ok()) return fail("per-tuple round", round.status());
    per_tuple_round = std::move(*round);
  }

  // Verification, per input: the reference round with outputs kept,
  // then the same round with the scalar solver kernels forced.
  std::vector<Round> references;
  bool verified = true;
  for (const std::vector<Tuple>& input : traces) {
    Result<Round> reference = RunRound(w, input, true, nullptr, false);
    if (!reference.ok()) return fail("reference round", reference.status());
    SetSimdOverrideForTesting(SimdLevel::kScalar);
    Result<Round> scalar = RunRound(w, input, true, nullptr, false);
    SetSimdOverrideForTesting(std::nullopt);
    if (!scalar.ok()) return fail("scalar round", scalar.status());
    verified = verified && reference->output_hash == scalar->output_hash &&
               SameCounts(reference->stats, scalar->stats) &&
               reference->stats.output_segments > 0;
    references.push_back(std::move(*reference));
  }
  for (size_t i = 0; i < rounds.size(); ++i) {
    if (!SameCounts(rounds[i].stats, references[round_trace[i]].stats)) {
      verified = false;
    }
  }
  const Round* reference = &references.front();
  result.correct = verified;
  result.attempted = static_cast<uint64_t>(n) * rounds.size();
  result.failed = verified ? 0 : result.attempted;
  char note[256];
  std::snprintf(note, sizeof(note),
                "%zu rounds of %zu tuples over %zu inputs verified=%d; "
                "input 0: %llu outputs (%llu by the final flush), %llu "
                "validated, %llu violations",
                rounds.size(), trace.size(), traces.size(), verified ? 1 : 0,
                static_cast<unsigned long long>(reference->stats.output_segments),
                static_cast<unsigned long long>(reference->flushed_outputs),
                static_cast<unsigned long long>(reference->stats.tuples_validated),
                static_cast<unsigned long long>(reference->stats.violations));
  result.notes.push_back(note);
  result.notes.push_back("round throughput " + MinMedianMax(throughput));
  result.notes.push_back("round steal fraction " + MinMedianMax(steal) +
                         ", " + std::to_string(UnstolenRounds(steal).size()) +
                         " rounds kept");
  result.notes.push_back("answer ms over the run " +
                         Quantiles(Pool(answer_ms_per_round)));

  if (!args.trace) {
    result.metrics.Set("throughput_per_s", UnstolenMedian(throughput, steal),
                       "1/s");
    result.metrics.Set(
        "answer_p50_ms",
        UnstolenMedianPercentile(answer_ms_per_round, steal, 50), "ms");
    result.metrics.Set(
        "answer_p90_ms",
        UnstolenMedianPercentile(answer_ms_per_round, steal, 90), "ms");
    result.metrics.Set("setup_s", Median(setup_s), "s");
    return result;
  }

  // Per-layer: the registry of the first untraced round, the ladder
  // (segmenter alone below the historical runtime), the exact counts.
  const Round& base = rounds.front();
  MetricSet& m = result.metrics;
  SetSolverMetrics(base.snapshot, n, &m);
  const double runtime_cpu = Median(cpu_per_tuple);
  double model_cpu = 0.0;
  if constexpr (!kPredictive) {
    std::vector<double> reps;
    for (int rep = 0; rep < 3; ++rep) {
      MultiAttributeSegmenter segmenter(w.spec().streams().begin()->second,
                                        w.options(false).segmentation);
      const int64_t cpu0 = ProcessCpuNs();
      for (const Tuple& t : trace) (void)segmenter.Add(t);
      reps.push_back(static_cast<double>(ProcessCpuNs() - cpu0) / n);
    }
    model_cpu = Median(reps);
    m.Set("model.cpu_ns_per_tuple", model_cpu, "ns");
    m.Set("model.segments", static_cast<double>(base.stats.segments_pushed),
          "count");
    m.Set("model.tuples_per_segment",
          Ratio(n, static_cast<double>(base.stats.segments_pushed)), "tuples");
  }
  m.Set("core.cpu_ns_per_tuple", runtime_cpu - model_cpu, "ns");
  if constexpr (kPredictive) {
    m.Set("core.validated_frac",
          Ratio(static_cast<double>(base.stats.tuples_validated),
                static_cast<double>(base.stats.tuples_in)),
          "fraction");
    m.Set("core.violations", static_cast<double>(base.stats.violations),
          "count");
    m.Set("core.process_tuple_ns_p50",
          Percentile(per_tuple_round.process_tuple_ns, 50), "ns");
    m.Set("core.process_tuple_ns_p99",
          Percentile(per_tuple_round.process_tuple_ns, 99), "ns");
  }
  // The top rung is the runtime itself, so it covers the whole round:
  // unattributed_frac stays 0 here by construction.
  m.Set("obs.trace_overhead_frac",
        1.0 - Ratio(Median(traced_throughput), Median(throughput)),
        "fraction");
  return result;
}

QuerySpec ProximityJoinSpec() {
  QuerySpec spec;
  (void)spec.AddStream(MovingObjectGenerator::MakeStreamSpec(
      "objects", 100.0 * kJoinObjects / 800.0));
  JoinSpec join;
  join.predicate = Predicate::Comparison(ComparisonTerm::Distance2(
      AttrRef::Left("x"), AttrRef::Left("y"), AttrRef::Right("x"),
      AttrRef::Right("y"), CmpOp::kLt, kJoinArea / 10.0));
  join.window_seconds = 4.0;
  join.require_distinct_keys = true;
  spec.AddJoin("join", QuerySpec::Input::Stream("objects"),
               QuerySpec::Input::Stream("objects"), join);
  return spec;
}

QuerySpec MacdSpec() {
  QuerySpec spec;
  (void)spec.AddStream(NyseGenerator::MakeStreamSpec("nyse", 5.0));
  (void)AddMacdQuery(&spec, MacdParams{});
  return spec;
}

}  // namespace

RunResult RunBatchJoin(const Args& args, Tracer* tracer) {
  const uint64_t seed = args.seed;
  const size_t n = args.smoke ? kSmokeJoinTuples : kJoinRoundTuples;
  Workload<HistoricalRuntime> w{
      "objects",
      &ProximityJoinSpec,
      [](bool collect) {
        HistoricalRuntime::Options o;
        o.segmentation.degree = 1;
        o.segmentation.max_error = 0.5;
        o.segmentation.max_points_per_segment = kJoinTuplesPerModel;
        o.collect_outputs = collect;
        return o;
      },
      kJoinInputs,
      [seed, n](size_t k) {
        MovingObjectOptions o;
        o.num_objects = kJoinObjects;
        o.tuple_rate = 800.0;
        o.tuples_per_segment = kJoinTuplesPerModel;
        o.area = kJoinArea;
        o.seed = DeriveSeed(seed, 200 + k);
        return MovingObjectGenerator(o).Generate(n);
      }};
  return RunRuntimeWorkload(args, tracer, w);
}

RunResult RunPredictMacd(const Args& args, Tracer* tracer) {
  const uint64_t seed = args.seed;
  const size_t n = args.smoke ? kSmokeMacdTuples : kMacdRoundTuples;
  Workload<PredictiveRuntime> w{
      "nyse",
      &MacdSpec,
      [](bool collect) {
        PredictiveRuntime::Options o;
        o.bounds = {BoundSpec::Relative("s.ap", 0.01)};
        o.collect_outputs = collect;
        return o;
      },
      kMacdInputs,
      [seed, n](size_t k) {
        NyseOptions o;
        o.num_symbols = 50;
        o.tuple_rate = 3000.0;
        o.trades_per_trend = 300;
        o.noise = 0.02;
        o.seed = DeriveSeed(seed, 300 + k);
        return NyseGenerator(o).Generate(n);
      }};
  return RunRuntimeWorkload(args, tracer, w);
}

}  // namespace e2e
