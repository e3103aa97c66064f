// Solver hot-path microbenchmark: measures the allocation-free solve
// pipeline (small-buffer polynomials + scratch-based root finding) on
// the paper's two solver-bound workloads and a segment-replay scenario,
// and writes the results to BENCH_solver_hotpath.json.
//
// Scenarios:
//   fig7_join_1t   — Fig. 7ii moving-object proximity self-join, single
//                    thread, predictive segment fitting. The solver
//                    dominates (one degree-2 difference system per
//                    overlapping segment pair). Reported against the
//                    pre-change reference throughput (~576k tuples/s on
//                    the development host) to track the hot-path win.
//   fig9_ais       — Fig. 9ii AIS "following" query in historical mode;
//                    joint multi-attribute segmentation + join + windowed
//                    aggregate, exercising deeper plans.
//   replay         — the same fitted Fig. 7 segment list pushed twice
//                    through one HistoricalRuntime; the second pass
//                    (segment replay without modeling) is timed.
//
// Each scenario repetition is bracketed by a fixed floating-point
// calibration kernel whose throughput ("calibration_ops_per_sec" per
// scenario in the JSON) measures how fast the machine was running in
// that window; the median rep by tuples-per-calibration-op is kept, and
// the check.sh regression gate compares calibration-normalized
// throughput so baselines survive host load swings.
//
// Per scenario the JSON records tuples/sec (median rep), solver row count,
// heap allocations attributed to Polynomial coefficient spill (delta of
// Polynomial::heap_allocations() across the run — the allocations proxy;
// near-zero means the SBO + scratch path held).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/runtime.h"
#include "math/polynomial.h"
#include "obs/metrics.h"
#include "util/cpu_features.h"
#include "workload/ais.h"
#include "workload/moving_object.h"
#include "workload/queries.h"

namespace pulse {
namespace {

// Pre-change single-thread Fig. 7 throughput on the development host
// (median of 3, commit before the SBO/scratch rework). Used only
// for the printed comparison; the JSON regression gate in
// scripts/check.sh compares against the checked-in baseline JSON.
constexpr double kFig7PreChangeTuplesPerSec = 576000.0;

constexpr double kArea = 1000.0;
constexpr size_t kNumObjects = 32;
constexpr double kRate = 800.0;
constexpr double kDuration = 60.0;
constexpr size_t kTuplesPerModel = 40;
constexpr double kWindowSeconds = 4.0;
constexpr int kRepeats = 5;

std::vector<Tuple> MakeFig7Trace() {
  MovingObjectOptions opts;
  opts.num_objects = kNumObjects;
  opts.tuple_rate = kRate;
  opts.tuples_per_segment = kTuplesPerModel;
  opts.area = kArea;
  opts.noise = 0.0;
  return MovingObjectGenerator(opts).Generate(
      static_cast<size_t>(kRate * kDuration));
}

QuerySpec ProximityJoin() {
  QuerySpec spec;
  (void)spec.AddStream(MovingObjectGenerator::MakeStreamSpec(
      "objects", 100.0 * kNumObjects / kRate));
  JoinSpec join;
  join.predicate = Predicate::Comparison(ComparisonTerm::Distance2(
      AttrRef::Left("x"), AttrRef::Left("y"), AttrRef::Right("x"),
      AttrRef::Right("y"), CmpOp::kLt, kArea / 10.0));
  join.window_seconds = kWindowSeconds;
  join.require_distinct_keys = true;
  spec.AddJoin("join", QuerySpec::Input::Stream("objects"),
               QuerySpec::Input::Stream("objects"), join);
  return spec;
}

HistoricalRuntime::Options Fig7Options() {
  HistoricalRuntime::Options opts;
  opts.segmentation.degree = 1;
  opts.segmentation.max_error = 0.5;
  opts.segmentation.max_points_per_segment = kTuplesPerModel;
  opts.collect_outputs = false;
  return opts;
}

struct ScenarioResult {
  const char* name = nullptr;
  size_t tuples = 0;
  double seconds = 0.0;  // from the median (calibration-normalized) rep
  double tuples_per_sec = 0.0;
  // Calibration kernel throughput bracketing the kept rep; the gate in
  // scripts/check.sh compares tuples_per_sec / calibration_ops_per_sec.
  double calibration_ops_per_sec = 0.0;
  uint64_t solves = 0;
  uint64_t heap_allocations = 0;  // Polynomial spill during the kept rep
  // Full registry snapshot of the kept rep's runtime (op counters, span
  // histograms) — embedded as the BENCH JSON `metrics` block.
  obs::MetricsSnapshot metrics;
};

// One repetition's raw measurements.
struct RepData {
  double seconds = 0.0;
  double calib = 0.0;  // calibration ops/s bracketing this rep
  uint64_t solves = 0;
  uint64_t heap_allocations = 0;
  obs::MetricsSnapshot metrics;
};

double NormalizedScore(double seconds, size_t tuples, double calib) {
  return (static_cast<double>(tuples) / seconds) / calib;
}

// The kept rep is the *median* by tuples-per-calibration-op. A median
// is a mid-distribution statistic on both the recorded baseline and
// the fresh gate run, so the check.sh comparison is not skewed by one
// window where scenario and calibration saw different host load (a
// max-selection baseline is an extreme that fresh runs then miss).
RepData MedianRep(std::vector<RepData> reps, size_t tuples) {
  std::sort(reps.begin(), reps.end(),
            [&](const RepData& a, const RepData& b) {
              return NormalizedScore(a.seconds, tuples, a.calib) <
                     NormalizedScore(b.seconds, tuples, b.calib);
            });
  return reps[reps.size() / 2];
}

void AdoptRep(RepData rep, ScenarioResult* r) {
  r->seconds = rep.seconds;
  r->calibration_ops_per_sec = rep.calib;
  r->solves = rep.solves;
  r->heap_allocations = rep.heap_allocations;
  r->metrics = std::move(rep.metrics);
}

// Sink keeping the calibration loop observable.
volatile double g_calibration_sink = 0.0;

// One timing of a fixed floating-point reference kernel, independent of
// the solver code under test. Its throughput tracks how fast this
// machine happens to be running *right now* (CPU contention, frequency
// scaling). Each scenario repetition is bracketed by two of these, and
// the scripts/check.sh gate compares tuples-per-calibration-op, so
// baseline comparisons recorded on a differently-loaded host still
// hold.
double MeasureCalibrationOpsPerSec() {
  constexpr size_t kIters = 10000000;
  double x = 1.0;
  const double s = bench::MeasureSeconds([&] {
    for (size_t i = 0; i < kIters; ++i) {
      x = x * 1.000000119 + 1e-9;
      if (x > 2.0) x -= 1.0;
    }
  });
  g_calibration_sink = g_calibration_sink + x;
  return static_cast<double>(kIters) / s;
}

uint64_t PlanSolves(const PulsePlan& plan) {
  uint64_t solves = 0;
  for (size_t n = 0; n < plan.num_nodes(); ++n) {
    solves += plan.node(n)->metrics().solves->value();
  }
  return solves;
}

void FinishScenario(ScenarioResult* r) {
  r->tuples_per_sec = static_cast<double>(r->tuples) / r->seconds;
}

// Fig. 7 proximity join, single thread, tuples through the online
// segmenter. Run kRepeats times; keep the median-scored rep's counters.
ScenarioResult RunFig7(const std::vector<Tuple>& trace) {
  ScenarioResult best;
  best.name = "fig7_join_1t";
  best.tuples = trace.size();
  std::vector<RepData> reps;
  reps.reserve(kRepeats);
  for (int rep = 0; rep < kRepeats; ++rep) {
    Result<HistoricalRuntime> rt =
        HistoricalRuntime::Make(ProximityJoin(), Fig7Options());
    if (!rt.ok()) {
      std::fprintf(stderr, "fig7 runtime setup failed: %s\n",
                   rt.status().ToString().c_str());
      return best;
    }
    const uint64_t allocs_before = Polynomial::heap_allocations();
    const double calib_before = MeasureCalibrationOpsPerSec();
    const double s = bench::MeasureSeconds([&] {
      for (const Tuple& t : trace) (void)rt->ProcessTuple("objects", t);
      (void)rt->Finish();
    });
    RepData r;
    r.seconds = s;
    r.calib = 0.5 * (calib_before + MeasureCalibrationOpsPerSec());
    r.solves = PlanSolves(rt->plan());
    r.heap_allocations = Polynomial::heap_allocations() - allocs_before;
    r.metrics = rt->metrics()->Snapshot();
    reps.push_back(r);
  }
  AdoptRep(MedianRep(std::move(reps), trace.size()), &best);
  FinishScenario(&best);
  return best;
}

// Fig. 9 AIS following query in historical mode (join + windowed avg).
ScenarioResult RunAis() {
  AisOptions gen_opts;
  gen_opts.num_vessels = 40;
  gen_opts.tuple_rate = 500.0;
  gen_opts.leg_duration = 120.0;
  gen_opts.following_fraction = 0.2;
  gen_opts.noise = 0.5;
  // Long enough (~35 ms/rep) that the bracketing calibration kernel
  // sees the same host load as the scenario itself.
  const std::vector<Tuple> trace = AisGenerator(gen_opts).Generate(180000);

  QuerySpec spec;
  (void)spec.AddStream(AisGenerator::MakeStreamSpec("ais", 30.0));
  FollowingParams params;
  params.avg_window = 120.0;
  params.avg_slide = 10.0;
  (void)AddFollowingQuery(&spec, params);

  HistoricalRuntime::Options opts;
  opts.segmentation.degree = 1;
  opts.segmentation.max_error = 2.0;
  opts.segmentation.max_points_per_segment = 500;
  opts.collect_outputs = false;

  ScenarioResult best;
  best.name = "fig9_ais";
  best.tuples = trace.size();
  std::vector<RepData> reps;
  reps.reserve(kRepeats);
  for (int rep = 0; rep < kRepeats; ++rep) {
    Result<HistoricalRuntime> rt = HistoricalRuntime::Make(spec, opts);
    if (!rt.ok()) {
      std::fprintf(stderr, "ais runtime setup failed: %s\n",
                   rt.status().ToString().c_str());
      return best;
    }
    const uint64_t allocs_before = Polynomial::heap_allocations();
    const double calib_before = MeasureCalibrationOpsPerSec();
    const double s = bench::MeasureSeconds([&] {
      for (const Tuple& t : trace) (void)rt->ProcessTuple("ais", t);
      (void)rt->Finish();
    });
    RepData r;
    r.seconds = s;
    r.calib = 0.5 * (calib_before + MeasureCalibrationOpsPerSec());
    r.solves = PlanSolves(rt->plan());
    r.heap_allocations = Polynomial::heap_allocations() - allocs_before;
    r.metrics = rt->metrics()->Snapshot();
    reps.push_back(r);
  }
  AdoptRep(MedianRep(std::move(reps), trace.size()), &best);
  FinishScenario(&best);
  return best;
}

// Segment replay: fit the Fig. 7 trace once, then push the identical
// segment list through one runtime twice. The scenario measures the
// *second* pass alone, against join state the first pass built.
ScenarioResult RunReplay(const std::vector<Tuple>& trace) {
  const QuerySpec spec = ProximityJoin();
  HistoricalRuntime::Options opts = Fig7Options();

  StreamSpec stream = MovingObjectGenerator::MakeStreamSpec(
      "objects", 100.0 * kNumObjects / kRate);
  MultiAttributeSegmenter modeler(stream, opts.segmentation);
  std::vector<Segment> segments;
  for (const Tuple& t : trace) {
    Result<std::optional<Segment>> r = modeler.Add(t);
    if (r.ok() && r->has_value()) segments.push_back(std::move(**r));
  }

  ScenarioResult best;
  best.name = "replay";
  best.tuples = trace.size();
  std::vector<RepData> reps;
  reps.reserve(kRepeats);
  for (int rep = 0; rep < kRepeats; ++rep) {
    Result<HistoricalRuntime> rt = HistoricalRuntime::Make(spec, opts);
    if (!rt.ok()) {
      std::fprintf(stderr, "replay runtime setup failed: %s\n",
                   rt.status().ToString().c_str());
      return best;
    }
    // Warm pass: populates join state.
    for (const Segment& s : segments) {
      (void)rt->ProcessSegment("objects", s);
    }
    const uint64_t solves_before = PlanSolves(rt->plan());
    const uint64_t allocs_before = Polynomial::heap_allocations();
    const double calib_before = MeasureCalibrationOpsPerSec();
    const double s = bench::MeasureSeconds([&] {
      for (const Segment& seg : segments) {
        (void)rt->ProcessSegment("objects", seg);
      }
      (void)rt->Finish();
    });
    RepData r;
    r.seconds = s;
    r.calib = 0.5 * (calib_before + MeasureCalibrationOpsPerSec());
    r.solves = PlanSolves(rt->plan()) - solves_before;
    r.heap_allocations = Polynomial::heap_allocations() - allocs_before;
    r.metrics = rt->metrics()->Snapshot();
    reps.push_back(r);
  }
  AdoptRep(MedianRep(std::move(reps), trace.size()), &best);
  FinishScenario(&best);
  return best;
}

void PrintScenario(const ScenarioResult& r) {
  std::printf(
      "  %-14s %10.0f tuples/s  (%zu tuples, %llu solves, "
      "%llu poly heap allocs)\n",
      r.name, r.tuples_per_sec, r.tuples,
      static_cast<unsigned long long>(r.solves),
      static_cast<unsigned long long>(r.heap_allocations));
}

}  // namespace
}  // namespace pulse

int main(int argc, char** argv) {
  using namespace pulse;
  std::printf(
      "Solver hot path: SBO polynomials + scratch root finding\n"
      "(median of %d runs per scenario, calibration-normalized)\n\n",
      kRepeats);

  const std::vector<Tuple> fig7_trace = MakeFig7Trace();
  const ScenarioResult fig7 = RunFig7(fig7_trace);
  const ScenarioResult ais = RunAis();
  const ScenarioResult replay = RunReplay(fig7_trace);

  PrintScenario(fig7);
  PrintScenario(ais);
  PrintScenario(replay);

  std::printf(
      "\n  fig7_join_1t vs pre-change reference (%.0f tuples/s): %.2fx\n",
      kFig7PreChangeTuplesPerSec,
      fig7.tuples_per_sec / kFig7PreChangeTuplesPerSec);

  bench::BenchReport report("solver_hotpath");
  report.ParamUint("repeats", static_cast<uint64_t>(kRepeats));
  report.ParamString("solver_kernel",
                     SimdLevelName(ActiveSimdLevel()));
  report.ParamDouble("fig7_prechange_tuples_per_sec",
                     kFig7PreChangeTuplesPerSec);
  for (const ScenarioResult* r : {&fig7, &ais, &replay}) {
    report.AddRow()
        .String("scenario", r->name)
        .Uint("tuples", r->tuples)
        .Double("seconds", r->seconds)
        .Double("tuples_per_sec", r->tuples_per_sec)
        .Double("calibration_ops_per_sec", r->calibration_ops_per_sec)
        .Uint("solves", r->solves)
        .Uint("poly_heap_allocations", r->heap_allocations);
  }
  // The metrics block carries the kept fig7 rep's registry snapshot —
  // the scenario the metrics-overhead gate normalizes on.
  report.AttachMetrics(fig7.metrics);
  if (!report.WriteFile("BENCH_solver_hotpath.json")) return 1;
  std::printf("\nWrote BENCH_solver_hotpath.json.\n");
  if (!bench::HandleMetricsOutFlag(argc, argv, fig7.metrics)) return 1;
  return 0;
}
