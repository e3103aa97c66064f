// Shard-per-core scaling on a partitionable per-key aggregate.
//
// The moving-object trace of the paper's Fig. 7 goes through a per-key
// windowed aggregate — a partitionable plan, so the
// shard::ShardedRuntime spreads keys over num_shards worker shards
// (docs/SHARDING.md). The Fig. 7 join itself is deliberately NOT used
// here: require_distinct_keys makes it cross-key, which the router
// collapses to one shard. num_shards sweeps {1, 2, 4, hw}.
//
// Expected shape: near-linear speedup while shards <= physical cores,
// flattening at the core count. On hosts with fewer cores than a
// configuration's shard count the extra workers time-slice one core and
// the speedup stays ~1x — each row's core_bound flag marks those
// configurations and the JSON records hardware_concurrency, so
// trajectories from different hosts stay comparable.
#include <cstdio>
#include <set>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "shard/sharded_runtime.h"
#include "workload/moving_object.h"

namespace pulse {
namespace {

constexpr double kArea = 1000.0;
constexpr size_t kNumObjects = 32;
constexpr double kRate = 800.0;      // aggregate tuples/second
constexpr double kDuration = 60.0;   // seconds of stream
constexpr size_t kTuplesPerModel = 40;

std::vector<Tuple> MakeTrace() {
  MovingObjectOptions opts;
  opts.num_objects = kNumObjects;
  opts.tuple_rate = kRate;
  opts.tuples_per_segment = kTuplesPerModel;
  opts.area = kArea;
  opts.noise = 0.0;
  return MovingObjectGenerator(opts).Generate(
      static_cast<size_t>(kRate * kDuration));
}

struct RunResult {
  size_t num_shards = 0;
  double seconds = 0.0;
  double tuples_per_sec = 0.0;
  uint64_t solves = 0;
  // Registry snapshot after the run; the widest configuration's snapshot
  // becomes the BENCH JSON `metrics` block.
  obs::MetricsSnapshot metrics;
};

// The partitionable workload of the sweep: per-key windowed
// average over the same trace. Every key's state is independent, so
// AnalyzePartitionability accepts it and the router spreads the keys.
QuerySpec PerKeyAggregate() {
  QuerySpec spec;
  (void)spec.AddStream(MovingObjectGenerator::MakeStreamSpec(
      "objects", 100.0 * kNumObjects / kRate));
  AggregateSpec agg;
  agg.fn = AggFn::kAvg;
  agg.attribute = "x";
  agg.output_attribute = "avg_x";
  agg.window_seconds = 2.0;
  agg.slide_seconds = 2.0;
  agg.per_key = true;
  spec.AddAggregate("agg", QuerySpec::Input::Stream("objects"), agg);
  return spec;
}

// One sweep configuration: the per-key aggregate trace pushed through a
// ShardedRuntime with `num_shards` worker shards.
RunResult RunSharded(const std::vector<Tuple>& trace, size_t num_shards) {
  const QuerySpec spec = PerKeyAggregate();
  shard::ShardedRuntimeOptions options;
  options.num_shards = num_shards;
  options.runtime.segmentation.degree = 1;
  options.runtime.segmentation.max_error = 0.5;
  options.runtime.segmentation.max_points_per_segment = kTuplesPerModel;
  options.runtime.collect_outputs = false;
  Result<shard::ShardedRuntime> rt =
      shard::ShardedRuntime::Make(spec, std::move(options));
  if (!rt.ok()) {
    std::fprintf(stderr, "sharded runtime setup failed: %s\n",
                 rt.status().ToString().c_str());
    return RunResult{};
  }
  RunResult result;
  result.num_shards = rt->num_shards();
  result.seconds = bench::MeasureSeconds([&] {
    for (const Tuple& t : trace) {
      (void)rt->ProcessTuple("objects", t);
    }
    (void)rt->Finish();
  });
  result.tuples_per_sec = static_cast<double>(trace.size()) / result.seconds;
  result.metrics = rt->Snapshot();
  // Solves summed across shards from the rollup (the sharded runtime has
  // no single plan to walk; the op/<node>/solves rollup is the same
  // number aggregated by the metrics layer).
  for (const auto& [name, value] : result.metrics.counters) {
    if (name.rfind("op/", 0) == 0 &&
        name.size() > 7 &&
        name.compare(name.size() - 7, 7, "/solves") == 0) {
      result.solves += value;
    }
  }
  return result;
}

}  // namespace
}  // namespace pulse

int main(int argc, char** argv) {
  using namespace pulse;
  const unsigned cores = bench::HardwareConcurrency();
  std::printf(
      "Shard scaling: per-key aggregate over the Fig. 7 moving-object "
      "trace, %zu objects, %g s of stream (host reports %u hardware "
      "threads)\n",
      kNumObjects, kDuration, cores);

  const std::vector<Tuple> trace = MakeTrace();
  // {1, 2, 4, hw} shards (deduplicated). Counts beyond the core count
  // still run — the row's core_bound flag marks them so the check.sh
  // gate knows the speedup number is meaningless on this host rather
  // than silently comparing it.
  std::set<size_t> shard_counts = {1, 2, 4};
  if (cores > 0) shard_counts.insert(static_cast<size_t>(cores));
  bench::SeriesTable table(
      "Shard-per-core scaling: per-key aggregate, tuples/sec vs shards",
      "num_shards", {"tuples_per_sec", "speedup", "solves"});
  std::vector<RunResult> results;
  double serial_tps = 0.0;
  for (size_t shards : shard_counts) {
    const RunResult r = RunSharded(trace, shards);
    if (r.num_shards == 0) return 1;
    if (shards == 1) serial_tps = r.tuples_per_sec;
    results.push_back(r);
    table.AddRow(static_cast<double>(shards),
                 {r.tuples_per_sec, r.tuples_per_sec / serial_tps,
                  static_cast<double>(r.solves)});
  }
  table.Print();

  bench::BenchReport report("parallel_scaling");
  report.ParamString("workload", "per_key_aggregate");
  report.ParamUint("num_objects", kNumObjects);
  report.ParamUint("tuples", trace.size());
  report.ParamUint("hardware_concurrency", cores);
  for (const RunResult& r : results) {
    report.AddRow()
        .Uint("num_shards", r.num_shards)
        .Double("seconds", r.seconds)
        .Double("tuples_per_sec", r.tuples_per_sec)
        .Double("speedup", r.tuples_per_sec / serial_tps)
        .Uint("solves", r.solves)
        .Bool("core_bound", bench::CoreBound(r.num_shards));
  }
  // The widest configuration's registry snapshot (shard/<i>/... mirrors
  // plus the merged rollups).
  report.AttachMetrics(results.back().metrics);
  if (!report.WriteFile("BENCH_parallel_scaling.json")) return 1;
  std::printf("\nWrote BENCH_parallel_scaling.json.\n");
  if (!bench::HandleMetricsOutFlag(argc, argv, results.back().metrics)) {
    return 1;
  }
  return 0;
}
