// Schema contract for BENCH_*.json documents.
//
// All persisted bench output goes through bench::BenchReport (the one
// writer), and scripts/check.sh's regression gate parses the checked-in
// documents by field name. These tests pin both sides of that contract:
// the writer's document shape (schema_version 2, params object, results
// rows, optional metrics block) and the checked-in files themselves —
// so schema drift fails in ctest instead of silently breaking the gate.
#include "bench_util.h"

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "util/json.h"

namespace pulse {
namespace {

json::Value ParseOrDie(const std::string& text) {
  Result<json::Value> doc = json::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.ok() ? *doc : json::Value::MakeNull();
}

// Asserts the invariants every BenchReport document obeys. ASSERT_*
// needs a void function, so the parsed value comes back via out-param.
void CheckReportShape(const std::string& text,
                      const std::string& expected_name, json::Value* out) {
  *out = ParseOrDie(text);
  const json::Value& doc = *out;
  EXPECT_TRUE(doc.is_object());
  const json::Value* bench = doc.Find("bench");
  ASSERT_NE(bench, nullptr) << "missing top-level \"bench\"";
  EXPECT_EQ(bench->as_string(), expected_name);
  const json::Value* version = doc.Find("schema_version");
  ASSERT_NE(version, nullptr) << "missing top-level \"schema_version\"";
  EXPECT_EQ(version->as_number(), 2.0);
  const json::Value* params = doc.Find("params");
  ASSERT_NE(params, nullptr) << "missing top-level \"params\"";
  EXPECT_TRUE(params->is_object());
  const json::Value* results = doc.Find("results");
  ASSERT_NE(results, nullptr) << "missing top-level \"results\"";
  EXPECT_TRUE(results->is_array());
  for (const json::Value& row : results->as_array()) {
    EXPECT_TRUE(row.is_object());
  }
}

void ExpectRowFields(const json::Value& doc,
                     const std::vector<std::string>& fields) {
  const json::Value* results = doc.Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_FALSE(results->as_array().empty());
  for (const json::Value& row : results->as_array()) {
    for (const std::string& field : fields) {
      EXPECT_NE(row.Find(field), nullptr)
          << "results row missing field \"" << field << "\"";
    }
  }
}

TEST(BenchReportTest, EmitsTheVersionedSchema) {
  bench::BenchReport report("unit");
  report.ParamUint("repeats", 3);
  report.ParamDouble("window_seconds", 2.5);
  report.ParamString("workload", "synthetic");
  report.AddRow()
      .String("scenario", "a")
      .Uint("tuples", 10)
      .Double("tuples_per_sec", 123.5)
      .Bool("core_bound", false);
  report.AddRow().String("scenario", "b").Uint("tuples", 20).Double(
      "tuples_per_sec", 456.0);

  json::Value doc;
  ASSERT_NO_FATAL_FAILURE(CheckReportShape(report.ToJson(), "unit", &doc));
  const json::Value* params = doc.Find("params");
  EXPECT_EQ(params->Find("repeats")->as_number(), 3.0);
  EXPECT_EQ(params->Find("window_seconds")->as_number(), 2.5);
  EXPECT_EQ(params->Find("workload")->as_string(), "synthetic");
  const auto& rows = doc.Find("results")->as_array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].Find("scenario")->as_string(), "a");
  EXPECT_FALSE(rows[0].Find("core_bound")->as_bool());
  EXPECT_EQ(rows[1].Find("tuples_per_sec")->as_number(), 456.0);
  // No AttachMetrics call: the block is absent, not empty.
  EXPECT_EQ(doc.Find("metrics"), nullptr);
}

TEST(BenchReportTest, AttachedMetricsBecomeTheMetricsBlock) {
  obs::MetricsRegistry registry;
  registry.GetCounter("runtime/tuples_in")->Add(7);
  registry.GetHistogram("span/solve/batch")->Record(12);

  bench::BenchReport report("unit");
  report.AddRow().Uint("threads", 1);
  report.AttachMetrics(registry.Snapshot());

  json::Value doc;
  ASSERT_NO_FATAL_FAILURE(CheckReportShape(report.ToJson(), "unit", &doc));
  const json::Value* metrics = doc.Find("metrics");
  if (!obs::kMetricsEnabled) {
    // Compiled-out registry: snapshots are empty and the block is omitted.
    EXPECT_EQ(metrics, nullptr);
    return;
  }
  ASSERT_NE(metrics, nullptr);
  const json::Value* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("runtime/tuples_in")->as_number(), 7.0);
  const json::Value* hists = metrics->Find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* batch = hists->Find("span/solve/batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->Find("count")->as_number(), 1.0);
}

TEST(BenchReportTest, EmptySnapshotIsOmitted) {
  obs::MetricsRegistry registry;
  bench::BenchReport report("unit");
  report.AddRow().Uint("threads", 1);
  report.AttachMetrics(registry.Snapshot());
  json::Value doc;
  ASSERT_NO_FATAL_FAILURE(CheckReportShape(report.ToJson(), "unit", &doc));
  EXPECT_EQ(doc.Find("metrics"), nullptr);
}

// ---------------------------------------------------------------------------
// Checked-in documents: the files scripts/check.sh's bench gate parses.
// Regenerate with `cd /root/repo && ./build/bench/bench_<name>` after
// intentional schema or workload changes.

std::string ReadFileOrEmpty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(CheckedInBenchJsonTest, SolverHotpathMatchesGateSchema) {
  const std::string text =
      ReadFileOrEmpty(std::string(PULSE_REPO_ROOT) +
                      "/BENCH_solver_hotpath.json");
  ASSERT_FALSE(text.empty()) << "BENCH_solver_hotpath.json missing";
  json::Value doc;
  ASSERT_NO_FATAL_FAILURE(CheckReportShape(text, "solver_hotpath", &doc));
  // Field names the check.sh regression gate keys on.
  ExpectRowFields(doc, {"scenario", "tuples", "seconds", "tuples_per_sec",
                        "calibration_ops_per_sec", "solves",
                        "poly_heap_allocations"});
  const json::Value* params = doc.Find("params");
  EXPECT_NE(params->Find("repeats"), nullptr);
  EXPECT_NE(params->Find("fig7_prechange_tuples_per_sec"), nullptr);
  // Which batched-kernel tier produced the numbers (ISSUE 7): one of the
  // SimdLevelName strings — "scalar", "sse2", "neon", "avx2".
  const json::Value* kernel = params->Find("solver_kernel");
  ASSERT_NE(kernel, nullptr);
  const std::string name = kernel->as_string();
  EXPECT_TRUE(name == "scalar" || name == "sse2" || name == "neon" ||
              name == "avx2")
      << "unexpected solver_kernel: " << name;
}

TEST(CheckedInBenchJsonTest, ServingThroughputMatchesGateSchema) {
  const std::string text =
      ReadFileOrEmpty(std::string(PULSE_REPO_ROOT) +
                      "/BENCH_serving_throughput.json");
  ASSERT_FALSE(text.empty()) << "BENCH_serving_throughput.json missing";
  json::Value doc;
  ASSERT_NO_FATAL_FAILURE(
      CheckReportShape(text, "serving_throughput", &doc));
  ExpectRowFields(doc, {"policy", "num_shards", "seconds", "tuples_per_sec",
                        "sent", "accepted", "dropped", "shed",
                        "output_segments", "admit_p99_ns", "core_bound"});
  const json::Value* params = doc.Find("params");
  EXPECT_NE(params->Find("sessions"), nullptr);
  EXPECT_NE(params->Find("queue_capacity"), nullptr);
  EXPECT_NE(params->Find("hardware_concurrency"), nullptr);
  // The acceptance bar for the serving layer: at least 16 concurrent
  // sessions sustained, one row per policy plus the admission run, plus
  // the sharded pair (1-shard and multi-shard multikey scenarios).
  EXPECT_GE(params->Find("sessions")->as_number(), 16.0);
  const auto& rows = doc.Find("results")->as_array();
  EXPECT_GE(rows.size(), 6u);
  bool saw_sharded = false;
  for (const json::Value& row : rows) {
    if (row.Find("num_shards")->as_number() > 1.0) saw_sharded = true;
  }
  EXPECT_TRUE(saw_sharded) << "no multi-shard serving scenario checked in";
  // The attached metrics block is StreamServer::Snapshot: the serve/*
  // series plus the shard registries read as shard/<i>/... series and
  // plain-name rollups (the naming contract of docs/SHARDING.md).
  const json::Value* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr) << "metrics block missing";
  const json::Value* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  bool saw_shard_metric = false;
  for (const auto& [name, value] : counters->as_object()) {
    if (name.rfind("shard/0/", 0) == 0) saw_shard_metric = true;
  }
  EXPECT_TRUE(saw_shard_metric)
      << "no shard/0/... counters in the metrics block";
  // Read after the drain, the runtime saw every dispatched tuple.
  const json::Value* tuples_in = counters->Find("runtime/tuples_in");
  const json::Value* batch_tuples = counters->Find("serve/batch/tuples");
  ASSERT_NE(tuples_in, nullptr);
  ASSERT_NE(batch_tuples, nullptr);
  EXPECT_EQ(tuples_in->as_number(), batch_tuples->as_number());
}

TEST(CheckedInBenchJsonTest, ParallelScalingMatchesGateSchema) {
  const std::string text =
      ReadFileOrEmpty(std::string(PULSE_REPO_ROOT) +
                      "/BENCH_parallel_scaling.json");
  ASSERT_FALSE(text.empty()) << "BENCH_parallel_scaling.json missing";
  json::Value doc;
  ASSERT_NO_FATAL_FAILURE(CheckReportShape(text, "parallel_scaling", &doc));
  ExpectRowFields(doc, {"num_shards", "seconds", "tuples_per_sec",
                        "speedup", "solves", "core_bound"});
  const json::Value* params = doc.Find("params");
  EXPECT_NE(params->Find("workload"), nullptr);
  EXPECT_NE(params->Find("hardware_concurrency"), nullptr);
  // The shard-per-core sweep needs at least two distinct shard counts.
  std::set<double> shard_counts;
  for (const json::Value& row : doc.Find("results")->as_array()) {
    shard_counts.insert(row.Find("num_shards")->as_number());
  }
  EXPECT_GE(shard_counts.size(), 2u)
      << "sharded sweep needs >= 2 distinct shard counts";
}

TEST(CheckedInBenchJsonTest, StorageMatchesGateSchema) {
  const std::string text = ReadFileOrEmpty(std::string(PULSE_REPO_ROOT) +
                                           "/BENCH_storage.json");
  ASSERT_FALSE(text.empty()) << "BENCH_storage.json missing";
  json::Value doc;
  ASSERT_NO_FATAL_FAILURE(CheckReportShape(text, "storage", &doc));
  ExpectRowFields(doc, {"scenario", "log_records", "log_bytes", "seconds",
                        "records_per_sec", "queries_per_sec", "speedup",
                        "calibration_ops_per_sec", "core_bound"});
  const json::Value* params = doc.Find("params");
  EXPECT_NE(params->Find("repeats"), nullptr);
  EXPECT_NE(params->Find("epoch_length"), nullptr);
  EXPECT_NE(params->Find("query_leaves"), nullptr);
  EXPECT_NE(params->Find("hardware_concurrency"), nullptr);
  // The storage acceptance bar: recovery timed at >= 3 distinct log
  // sizes (the recovery-time-vs-log-size curve), and the pre-aggregated
  // tree at least 5x faster than the per-query timeline replay.
  std::set<double> recover_sizes;
  double tree_speedup = 0.0;
  bool saw_replay = false;
  for (const json::Value& row : doc.Find("results")->as_array()) {
    const std::string scenario = row.Find("scenario")->as_string();
    if (scenario == "recover") {
      recover_sizes.insert(row.Find("log_records")->as_number());
      EXPECT_GT(row.Find("records_per_sec")->as_number(), 0.0);
    } else if (scenario == "tree_query") {
      tree_speedup = row.Find("speedup")->as_number();
    } else if (scenario == "replay_query") {
      saw_replay = true;
    }
  }
  EXPECT_GE(recover_sizes.size(), 3u)
      << "recovery curve needs >= 3 distinct log sizes";
  EXPECT_TRUE(saw_replay) << "no replay_query baseline row";
  EXPECT_GE(tree_speedup, 5.0)
      << "pre-aggregated tree must be >= 5x the replay baseline";
}

TEST(CheckedInBenchJsonTest, TelemetryMatchesGateSchema) {
  const std::string text = ReadFileOrEmpty(std::string(PULSE_REPO_ROOT) +
                                           "/BENCH_telemetry.json");
  ASSERT_FALSE(text.empty()) << "BENCH_telemetry.json missing";
  json::Value doc;
  ASSERT_NO_FATAL_FAILURE(CheckReportShape(text, "telemetry", &doc));
  ExpectRowFields(doc, {"query", "realization", "tuples", "seconds",
                        "tuples_per_sec", "attacks", "detected", "p50_ms",
                        "p95_ms", "p99_ms", "core_bound"});
  const json::Value* params = doc.Find("params");
  EXPECT_NE(params->Find("hosts"), nullptr);
  EXPECT_NE(params->Find("tuple_rate"), nullptr);
  EXPECT_NE(params->Find("epoch_seconds"), nullptr);
  EXPECT_NE(params->Find("hardware_concurrency"), nullptr);
  // Detection-latency percentiles for at least 3 distinct detection
  // queries, each measured on both realizations, with every scheduled
  // attack detected (the thresholds sit between the baseline band and
  // the attack peak, so a miss is a pipeline bug, not tuning).
  std::set<std::string> queries;
  std::set<std::string> realizations;
  for (const json::Value& row : doc.Find("results")->as_array()) {
    queries.insert(row.Find("query")->as_string());
    realizations.insert(row.Find("realization")->as_string());
    EXPECT_EQ(row.Find("detected")->as_number(),
              row.Find("attacks")->as_number())
        << row.Find("query")->as_string() << "/"
        << row.Find("realization")->as_string() << " missed attacks";
    EXPECT_GT(row.Find("attacks")->as_number(), 0.0);
    EXPECT_LE(row.Find("p50_ms")->as_number(),
              row.Find("p99_ms")->as_number());
  }
  EXPECT_GE(queries.size(), 3u)
      << "need latency percentiles for >= 3 detection queries";
  EXPECT_TRUE(realizations.count("discrete") &&
              realizations.count("pulse"))
      << "both realizations must be benchmarked";
}

TEST(CheckedInBenchJsonTest, PrecisionMatchesGateSchema) {
  const std::string text = ReadFileOrEmpty(std::string(PULSE_REPO_ROOT) +
                                           "/BENCH_precision.json");
  ASSERT_FALSE(text.empty()) << "BENCH_precision.json missing";
  json::Value doc;
  ASSERT_NO_FATAL_FAILURE(CheckReportShape(text, "precision", &doc));
  ExpectRowFields(doc, {"tier", "error_scale", "output_bound",
                        "live_seconds", "tuples_per_sec", "throughput_ratio",
                        "settle_seconds", "provisional", "confirmed",
                        "retracted", "deferred_items", "core_bound"});
  const json::Value* params = doc.Find("params");
  EXPECT_NE(params->Find("workload"), nullptr);
  EXPECT_NE(params->Find("tight_max_error"), nullptr);
  EXPECT_NE(params->Find("ladder_tiers"), nullptr);
  EXPECT_NE(params->Find("hardware_concurrency"), nullptr);
  // The precision-lever acceptance bar (docs/PRECISION.md): one row per
  // tier including the exact baseline, live throughput at the widest
  // tier >= 1.3x tier 0, and conservation on every widened row
  // (provisional == confirmed + retracted once settled).
  const auto& rows = doc.Find("results")->as_array();
  ASSERT_GE(rows.size(), 3u) << "need tier 0 plus >= 2 widened tiers";
  double tier0_tps = 0.0;
  double widest_ratio = 0.0;
  for (const json::Value& row : rows) {
    const double tier = row.Find("tier")->as_number();
    if (tier == 0.0) {
      tier0_tps = row.Find("tuples_per_sec")->as_number();
      EXPECT_EQ(row.Find("provisional")->as_number(), 0.0)
          << "tier 0 must not emit provisionals";
    } else {
      EXPECT_GT(row.Find("error_scale")->as_number(), 1.0);
      EXPECT_GT(row.Find("output_bound")->as_number(), 0.0);
      EXPECT_EQ(row.Find("provisional")->as_number(),
                row.Find("confirmed")->as_number() +
                    row.Find("retracted")->as_number())
          << "conservation violated at tier " << tier;
    }
    widest_ratio = row.Find("throughput_ratio")->as_number();
  }
  EXPECT_GT(tier0_tps, 0.0);
  EXPECT_GE(widest_ratio, 1.3)
      << "widest tier must sustain >= 1.3x the tier-0 live throughput";
}

// Fig. 9i (NYSE MACD): the tuple, Pulse and historical series, with the
// Pulse row's counts, which are deterministic for the bench's fixed
// trace and move only when an answer or a validation decision moves.
TEST(CheckedInBenchJsonTest, Fig9NyseMatchesSchema) {
  const std::string text = ReadFileOrEmpty(std::string(PULSE_REPO_ROOT) +
                                           "/BENCH_fig9_nyse.json");
  ASSERT_FALSE(text.empty()) << "BENCH_fig9_nyse.json missing";
  json::Value doc;
  ASSERT_NO_FATAL_FAILURE(CheckReportShape(text, "fig9_nyse", &doc));
  ExpectRowFields(doc, {"series", "tuples", "seconds", "tuples_per_sec",
                        "core_bound"});
  const json::Value* params = doc.Find("params");
  for (const char* key : {"symbols", "tuple_rate", "trades_per_trend",
                          "noise", "seed", "relative_bound",
                          "hardware_concurrency"}) {
    EXPECT_NE(params->Find(key), nullptr) << "missing param " << key;
  }
  const auto& rows = doc.Find("results")->as_array();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].Find("series")->as_string(), "tuple");
  EXPECT_EQ(rows[1].Find("series")->as_string(), "pulse");
  EXPECT_EQ(rows[2].Find("series")->as_string(), "historical");
  for (const json::Value& row : rows) {
    EXPECT_EQ(row.Find("tuples")->as_number(), 360000.0);
    EXPECT_GT(row.Find("tuples_per_sec")->as_number(), 0.0);
  }
  const json::Value& pulse = rows[1];
  for (const char* field :
       {"tuples_validated", "segments_pushed", "violations",
        "output_segments", "macd_short_process_ns_p50",
        "macd_long_process_ns_p50", "macd_join_process_ns_p50",
        "macd_diff_process_ns_p50"}) {
    ASSERT_NE(pulse.Find(field), nullptr) << "pulse row missing " << field;
  }
  EXPECT_EQ(pulse.Find("tuples_validated")->as_number(), 358793.0);
  EXPECT_EQ(pulse.Find("segments_pushed")->as_number(), 1207.0);
  EXPECT_EQ(pulse.Find("violations")->as_number(), 16.0);
  EXPECT_EQ(pulse.Find("output_segments")->as_number(), 937.0);
  // Every trade is either explained by its model or pushes a new one.
  EXPECT_EQ(pulse.Find("tuples_validated")->as_number() +
                pulse.Find("segments_pushed")->as_number(),
            360000.0);
  EXPECT_GT(pulse.Find("macd_long_process_ns_p50")->as_number(), 0.0);
  EXPECT_GT(pulse.Find("macd_short_process_ns_p50")->as_number(), 0.0);
  const json::Value& historical = rows[2];
  ASSERT_NE(historical.Find("segments_pushed"), nullptr);
  EXPECT_EQ(historical.Find("segments_pushed")->as_number(), 755.0);
  EXPECT_EQ(historical.Find("output_segments")->as_number(), 540.0);
}

// Operators count into registry series, so a metrics block names each
// series once, summed over every runtime that fed it; a "#N" suffix was
// the old per-runtime duplicate and must not come back.
TEST(CheckedInBenchJsonTest, MetricsBlocksHaveNoDuplicateSuffixes) {
  for (const char* file :
       {"BENCH_fig9_nyse.json", "BENCH_parallel_scaling.json",
       "BENCH_precision.json",
        "BENCH_serving_throughput.json", "BENCH_solver_hotpath.json",
        "BENCH_storage.json", "BENCH_telemetry.json"}) {
    const std::string text =
        ReadFileOrEmpty(std::string(PULSE_REPO_ROOT) + "/" + file);
    ASSERT_FALSE(text.empty()) << file << " missing";
    const json::Value doc = ParseOrDie(text);
    const json::Value* metrics = doc.Find("metrics");
    if (metrics == nullptr) continue;
    for (const char* kind : {"counters", "gauges", "histograms"}) {
      const json::Value* series = metrics->Find(kind);
      if (series == nullptr) continue;
      for (const auto& [name, value] : series->as_object()) {
        EXPECT_EQ(name.find('#'), std::string::npos) << file << ": " << name;
      }
    }
  }
}

}  // namespace
}  // namespace pulse
