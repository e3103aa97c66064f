// Tiered-store benchmark (docs/STORAGE.md): recovery time as a
// function of log size, and tree-served historical range aggregates
// against the no-index baseline, written to BENCH_storage.json.
//
// Scenarios:
//   recover      — a store directory holding N logged segments is
//                  reopened with SegmentStore::Recover (scan + torn-tail
//                  check + checkpoint reconcile + timeline rebuild; the
//                  trees wait for a series' first query). One row per
//                  log size; the interesting shape is records_per_sec
//                  staying flat as the log grows (recovery is a linear
//                  replay).
//   replay_query — the baseline a store without the tree would run: a
//                  linear scan over the full per-key timeline per range
//                  query, clipping each overlapping segment exactly
//                  (this is what replaying the log per historical query
//                  costs). Answers are checked against the tree's.
//   tree_query   — the same queries served by SegmentStore::QueryRange
//                  (O(log n) pre-aggregated node payloads + two exact
//                  edge leaves). The `speedup` field on this row is
//                  replay seconds / tree seconds; the check.sh storage
//                  gate requires >= 5x.
//
// Each scenario repetition is bracketed by the fixed floating-point
// calibration kernel (same policy as bench_solver_hotpath): the median
// rep by work-per-calibration-op is kept and the JSON records the
// bracketing calibration throughput, so the checked-in baseline
// survives host load swings. Everything here is single-threaded, so
// core_bound is honestly false unless the host reports one core.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "math/polynomial.h"
#include "model/segment.h"
#include "obs/metrics.h"
#include "store/store.h"
#include "util/rng.h"

namespace pulse {
namespace {

namespace fs = std::filesystem;

constexpr int kRepeats = 3;
constexpr uint64_t kRecoverSizes[] = {4096, 16384, 65536};
constexpr uint64_t kQueryLeaves = 32768;
constexpr uint64_t kNumQueries = 256;
constexpr double kEpochLength = 10.0;

// Sink keeping the calibration loop observable.
volatile double g_calibration_sink = 0.0;

// The same fixed reference kernel as bench_solver_hotpath: its
// throughput tracks how fast the host runs *right now*, and the
// check.sh gate compares work-per-calibration-op.
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

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "pulse_bench_store_XXXXXX").string();
    char* got = ::mkdtemp(tmpl.data());
    path = got != nullptr ? got : "";
  }
  ~TempDir() {
    if (!path.empty()) {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  }
};

// Contiguous mixed-degree segments for one key/attribute: the modeled
// series every scenario queries. Same shape as the segment-tree oracle
// test's leaves so bench and test exercise the same polynomial paths.
std::vector<Segment> MakeSeries(uint64_t n) {
  Rng rng(271828);
  std::vector<Segment> out;
  out.reserve(n);
  double t = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    const double len = rng.Uniform(0.1, 2.0);
    Segment seg(1, Interval::ClosedOpen(t, t + len));
    switch (rng.UniformInt(0, 2)) {
      case 0:
        seg.attributes["x"] = Polynomial({rng.Uniform(-5.0, 5.0)});
        break;
      case 1:
        seg.attributes["x"] =
            Polynomial({rng.Uniform(-5.0, 5.0), rng.Uniform(-1.0, 1.0)});
        break;
      default:
        seg.attributes["x"] =
            Polynomial({rng.Uniform(-5.0, 5.0), rng.Uniform(-1.0, 1.0),
                        rng.Uniform(-0.5, 0.5), rng.Uniform(-0.1, 0.1)});
        break;
    }
    out.push_back(std::move(seg));
    t += len;
  }
  return out;
}

// Fills a fresh store directory with `segments` and seals a checkpoint
// (the state a drained durable server leaves behind).
bool PopulateDir(const std::string& dir, const std::vector<Segment>& segments,
                 uint64_t* log_bytes) {
  Result<store::SegmentStore> st =
      store::SegmentStore::Open({.dir = dir, .epoch_length = kEpochLength});
  if (!st.ok()) {
    std::fprintf(stderr, "store open failed: %s\n",
                 st.status().ToString().c_str());
    return false;
  }
  for (const Segment& seg : segments) {
    if (Status s = st->AppendSegment("series", seg); !s.ok()) {
      std::fprintf(stderr, "append failed: %s\n", s.ToString().c_str());
      return false;
    }
  }
  if (Status s = st->WriteCheckpoint(/*finished=*/true); !s.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
    return false;
  }
  *log_bytes = st->log_bytes();
  return true;
}

struct RepData {
  double seconds = 0.0;
  double calib = 0.0;
};

// Median by work-per-calibration-op (same statistic as the solver
// bench: mid-distribution on both baseline and gate runs).
RepData MedianRep(std::vector<RepData> reps) {
  std::sort(reps.begin(), reps.end(), [](const RepData& a, const RepData& b) {
    return (1.0 / a.seconds) / a.calib < (1.0 / b.seconds) / b.calib;
  });
  return reps[reps.size() / 2];
}

struct RecoverResult {
  uint64_t log_records = 0;
  uint64_t log_bytes = 0;
  RepData rep;
};

RecoverResult RunRecover(uint64_t n) {
  RecoverResult out;
  out.log_records = n;
  const std::vector<Segment> series = MakeSeries(n);
  std::vector<RepData> reps;
  for (int rep = 0; rep < kRepeats; ++rep) {
    TempDir dir;
    if (dir.path.empty() ||
        !PopulateDir(dir.path, series, &out.log_bytes)) {
      return out;
    }
    RepData r;
    const double calib_before = MeasureCalibrationOpsPerSec();
    r.seconds = bench::MeasureSeconds([&] {
      Result<store::RecoveredStore> rec = store::SegmentStore::Recover(
          {.dir = dir.path, .epoch_length = kEpochLength});
      if (!rec.ok() || !rec->report.clean() ||
          rec->store.log_records() != n) {
        std::fprintf(stderr, "recovery wrong: %s\n",
                     rec.ok() ? rec->report.ToString().c_str()
                              : rec.status().ToString().c_str());
        std::exit(1);
      }
    });
    r.calib = 0.5 * (calib_before + MeasureCalibrationOpsPerSec());
    reps.push_back(r);
  }
  out.rep = MedianRep(std::move(reps));
  return out;
}

// The no-index baseline: clip every timeline segment against the query
// range with the store's closed-range convention (a segment ending
// exactly at lo is excluded; one starting exactly at hi contributes a
// point). Linear in the timeline — the cost of replaying history per
// query.
store::RangeAggregate ReplayQuery(const std::vector<Segment>& timeline,
                                  double lo, double hi) {
  store::RangeAggregate out;
  for (const Segment& seg : timeline) {
    if (seg.range.hi <= lo) continue;
    if (seg.range.lo > hi) break;  // timelines are time-ordered
    const double a = std::max(seg.range.lo, lo);
    const double b = std::min(seg.range.hi, hi);
    const auto it = seg.attributes.find("x");
    if (it == seg.attributes.end()) continue;
    out.Combine(store::AggregatePolynomial(it->second, a, b));
  }
  return out;
}

struct QueryBenchResult {
  RepData replay;
  RepData tree;
  double max_rel_diff = 0.0;  // worst integral disagreement, sanity
  obs::MetricsSnapshot metrics;
};

QueryBenchResult RunQueries() {
  QueryBenchResult out;
  const std::vector<Segment> series = MakeSeries(kQueryLeaves);
  const double t_end = series.back().range.hi;

  obs::MetricsRegistry registry;
  TempDir dir;
  uint64_t log_bytes = 0;
  if (dir.path.empty() || !PopulateDir(dir.path, series, &log_bytes)) {
    return out;
  }
  Result<store::RecoveredStore> rec = store::SegmentStore::Recover(
      {.dir = dir.path, .epoch_length = kEpochLength, .metrics = &registry});
  if (!rec.ok()) {
    std::fprintf(stderr, "recover failed: %s\n",
                 rec.status().ToString().c_str());
    return out;
  }
  store::SegmentStore& st = rec->store;
  const std::vector<Segment>* timeline = st.Timeline("series", 1);
  if (timeline == nullptr) {
    std::fprintf(stderr, "timeline missing\n");
    return out;
  }

  // Dashboard-style ranges: random offsets, widths up to 10% of the
  // modeled history.
  Rng rng(314159);
  std::vector<std::pair<double, double>> ranges;
  ranges.reserve(kNumQueries);
  for (uint64_t i = 0; i < kNumQueries; ++i) {
    const double width = rng.Uniform(0.0, 0.1 * t_end);
    const double lo = rng.Uniform(0.0, t_end - width);
    ranges.emplace_back(lo, lo + width);
  }

  // Answers must agree before timings mean anything.
  for (const auto& [lo, hi] : ranges) {
    const store::RangeAggregate a = ReplayQuery(*timeline, lo, hi);
    const store::RangeAggregate b = st.QueryRange("series", 1, "x", lo, hi);
    if (a.count != b.count) {
      std::fprintf(stderr, "tree/replay count mismatch on [%f, %f]\n", lo,
                   hi);
      std::exit(1);
    }
    const double denom = std::max(1.0, std::fabs(a.integral));
    out.max_rel_diff = std::max(
        out.max_rel_diff, std::fabs(a.integral - b.integral) / denom);
  }
  if (out.max_rel_diff > 1e-9) {
    std::fprintf(stderr, "tree/replay integral drift %.3g\n",
                 out.max_rel_diff);
    std::exit(1);
  }

  volatile double sink = 0.0;
  std::vector<RepData> replay_reps;
  std::vector<RepData> tree_reps;
  for (int rep = 0; rep < kRepeats; ++rep) {
    RepData r;
    double calib_before = MeasureCalibrationOpsPerSec();
    r.seconds = bench::MeasureSeconds([&] {
      for (const auto& [lo, hi] : ranges) {
        sink = sink + ReplayQuery(*timeline, lo, hi).integral;
      }
    });
    r.calib = 0.5 * (calib_before + MeasureCalibrationOpsPerSec());
    replay_reps.push_back(r);

    RepData t;
    calib_before = MeasureCalibrationOpsPerSec();
    t.seconds = bench::MeasureSeconds([&] {
      for (const auto& [lo, hi] : ranges) {
        sink = sink + st.QueryRange("series", 1, "x", lo, hi).integral;
      }
    });
    t.calib = 0.5 * (calib_before + MeasureCalibrationOpsPerSec());
    tree_reps.push_back(t);
  }
  g_calibration_sink = g_calibration_sink + sink;
  out.replay = MedianRep(std::move(replay_reps));
  out.tree = MedianRep(std::move(tree_reps));
  out.metrics = registry.Snapshot();
  return out;
}

}  // namespace
}  // namespace pulse

int main(int argc, char** argv) {
  using namespace pulse;
  std::printf(
      "Tiered segment store: recovery scaling + tree vs replay range "
      "queries\n(median of %d reps per scenario, "
      "calibration-normalized)\n\n",
      kRepeats);

  bench::BenchReport report("storage");
  report.ParamUint("repeats", static_cast<uint64_t>(kRepeats));
  report.ParamDouble("epoch_length", kEpochLength);
  report.ParamUint("query_leaves", kQueryLeaves);
  report.ParamUint("queries", kNumQueries);
  report.ParamUint("hardware_concurrency", bench::HardwareConcurrency());

  bench::SeriesTable recover_table("Recovery time vs log size",
                                   "log_records",
                                   {"seconds", "records_per_sec"});
  for (uint64_t n : kRecoverSizes) {
    const RecoverResult r = RunRecover(n);
    if (r.rep.seconds == 0.0) return 1;
    const double rps = static_cast<double>(n) / r.rep.seconds;
    recover_table.AddRow(static_cast<double>(n), {r.rep.seconds, rps});
    report.AddRow()
        .String("scenario", "recover")
        .Uint("log_records", r.log_records)
        .Uint("log_bytes", r.log_bytes)
        .Double("seconds", r.rep.seconds)
        .Double("records_per_sec", rps)
        .Double("queries_per_sec", 0.0)
        .Double("speedup", 1.0)
        .Double("calibration_ops_per_sec", r.rep.calib)
        .Bool("core_bound", bench::CoreBound(1));
  }
  recover_table.Print();

  const QueryBenchResult q = RunQueries();
  if (q.replay.seconds == 0.0 || q.tree.seconds == 0.0) return 1;
  const double replay_qps =
      static_cast<double>(kNumQueries) / q.replay.seconds;
  const double tree_qps = static_cast<double>(kNumQueries) / q.tree.seconds;
  const double speedup = q.replay.seconds / q.tree.seconds;
  std::printf(
      "\nRange queries over %llu segments (%llu queries):\n"
      "  replay  %12.0f queries/s\n"
      "  tree    %12.0f queries/s   (%.1fx, worst integral drift %.2g)\n",
      static_cast<unsigned long long>(kQueryLeaves),
      static_cast<unsigned long long>(kNumQueries), replay_qps, tree_qps,
      speedup, q.max_rel_diff);

  report.AddRow()
      .String("scenario", "replay_query")
      .Uint("log_records", kQueryLeaves)
      .Uint("log_bytes", 0)
      .Double("seconds", q.replay.seconds)
      .Double("records_per_sec", 0.0)
      .Double("queries_per_sec", replay_qps)
      .Double("speedup", 1.0)
      .Double("calibration_ops_per_sec", q.replay.calib)
      .Bool("core_bound", bench::CoreBound(1));
  report.AddRow()
      .String("scenario", "tree_query")
      .Uint("log_records", kQueryLeaves)
      .Uint("log_bytes", 0)
      .Double("seconds", q.tree.seconds)
      .Double("records_per_sec", 0.0)
      .Double("queries_per_sec", tree_qps)
      .Double("speedup", speedup)
      .Double("calibration_ops_per_sec", q.tree.calib)
      .Bool("core_bound", bench::CoreBound(1));
  report.AttachMetrics(q.metrics);

  if (!report.WriteFile("BENCH_storage.json")) return 1;
  std::printf("\nWrote BENCH_storage.json.\n");
  if (!bench::HandleMetricsOutFlag(argc, argv, q.metrics)) return 1;
  return 0;
}
