// Reproduces paper Fig. 9i: NYSE MACD query throughput, 1% error
// threshold. Three series: tuple-based MACD, Pulse (predictive,
// validation-driven), and historical processing (pre-segmented input, no
// validation overhead).
//
// Paper shape: tuple query tails off first (~4000 tup/s in the paper),
// Pulse scales ~1.6x further (~6500 tup/s), historical segment processing
// scales best in this range.
//
// Writes BENCH_fig9_nyse.json: one row per series, the Pulse row with
// its validated/pushed/violation counts (deterministic for the fixed
// trace; tests/bench_schema_test.cc pins them) and the per-push p50 of
// each MACD operator (op/<name>/process_ns), and the Pulse runtime's
// metrics block.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/runtime.h"
#include "engine/executor.h"
#include "engine/stream.h"
#include "workload/nyse.h"
#include "workload/queries.h"

namespace pulse {
namespace {

QuerySpec MacdSpec() {
  QuerySpec spec;
  (void)spec.AddStream(NyseGenerator::MakeStreamSpec("nyse", 5.0));
  MacdParams params;  // paper windows: 10 s / 60 s, slide 2 s
  (void)AddMacdQuery(&spec, params);
  return spec;
}

}  // namespace
}  // namespace pulse

int main(int argc, char** argv) {
  using namespace pulse;
  NyseOptions gen_opts;
  gen_opts.num_symbols = 50;
  gen_opts.tuple_rate = 3000.0;
  gen_opts.trades_per_trend = 300;
  gen_opts.noise = 0.02;
  const std::vector<Tuple> trace =
      NyseGenerator(gen_opts).Generate(360000);  // 120 s of trades
  const QuerySpec spec = MacdSpec();
  std::printf("Fig 9i reproduction: MACD over %zu synthetic NYSE trades\n",
              trace.size());

  Result<DiscretePlan> dplan = BuildDiscretePlan(spec);
  Result<Executor> dexec = Executor::Make(std::move(dplan->plan));
  dexec->set_discard_output(true);
  // System-level measurement: discrete tuples pass through the engine's
  // admission queue (Borealis enqueues every tuple before processing;
  // Pulse's validator and the historical modeler intercept tuples before
  // the engine — paper Fig. 4).
  Stream admission("nyse.in", NyseGenerator::TupleSchema());
  const double tuple_s = bench::MeasureSeconds([&] {
    Tuple queued;
    for (const Tuple& t : trace) {
      (void)admission.Push(t);
      (void)admission.Pop(&queued);
      (void)dexec->PushTuple("nyse", queued);
    }
    (void)dexec->Finish();
  });

  PredictiveRuntime::Options popts;
  popts.bounds = {BoundSpec::Relative("s.ap", 0.01)};  // 1% of trade value
  popts.collect_outputs = false;
  Result<PredictiveRuntime> rt = PredictiveRuntime::Make(spec, popts);
  const double pulse_s = bench::MeasureSeconds([&] {
    for (const Tuple& t : trace) (void)rt->ProcessTuple("nyse", t);
    (void)rt->Finish();
  });

  HistoricalRuntime::Options hopts;
  hopts.segmentation.degree = 1;
  hopts.segmentation.max_error = 0.05;
  hopts.segmentation.max_points_per_segment = 500;
  hopts.collect_outputs = false;
  Result<HistoricalRuntime> hist = HistoricalRuntime::Make(spec, hopts);
  const double hist_s = bench::MeasureSeconds([&] {
    for (const Tuple& t : trace) (void)hist->ProcessTuple("nyse", t);
    (void)hist->Finish();
  });

  const double n = static_cast<double>(trace.size());
  std::printf("\nMeasured capacities (tuples/s):\n");
  std::printf("  tuple MACD       : %12.0f\n", n / tuple_s);
  std::printf("  pulse MACD       : %12.0f  (validated %llu / pushed %llu"
              " segments, %llu violations)\n",
              n / pulse_s,
              static_cast<unsigned long long>(rt->stats().tuples_validated),
              static_cast<unsigned long long>(rt->stats().segments_pushed),
              static_cast<unsigned long long>(rt->stats().violations));
  std::printf("  historical MACD  : %12.0f  (%llu segments)\n", n / hist_s,
              static_cast<unsigned long long>(
                  hist->stats().segments_pushed));

  const double c_tuple = n / tuple_s;
  bench::SeriesTable table(
      "Fig 9i: achieved MACD throughput vs offered rate (1% threshold)",
      "offered_tps", {"tuple_tps", "pulse_tps", "historical_tps"});
  for (double f = 0.25; f <= 3.01; f += 0.25) {
    const double offered = f * c_tuple;
    table.AddRow(
        offered,
        {bench::SimulateQueue(trace.size(), tuple_s, offered).achieved_tps,
         bench::SimulateQueue(trace.size(), pulse_s, offered).achieved_tps,
         bench::SimulateQueue(trace.size(), hist_s, offered)
             .achieved_tps});
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper): tuple MACD saturates first; Pulse "
      "sustains a higher rate (~1.6x in the paper);\nhistorical segment "
      "processing scales further still.\n");

  const RuntimeStats pulse_stats = rt->stats();
  const obs::MetricsSnapshot pulse_metrics = rt->metrics()->Snapshot();
  auto process_p50 = [&pulse_metrics](const std::string& op) {
    auto it = pulse_metrics.histograms.find("op/" + op + "/process_ns");
    return it == pulse_metrics.histograms.end() ? 0.0 : it->second.p50;
  };
  bench::BenchReport report("fig9_nyse");
  report.ParamUint("symbols", gen_opts.num_symbols);
  report.ParamDouble("tuple_rate", gen_opts.tuple_rate);
  report.ParamUint("trades_per_trend", gen_opts.trades_per_trend);
  report.ParamDouble("noise", gen_opts.noise);
  report.ParamUint("seed", gen_opts.seed);
  report.ParamDouble("relative_bound", 0.01);
  report.ParamUint("hardware_concurrency", bench::HardwareConcurrency());
  auto add_row = [&](const char* series, double seconds) -> auto& {
    return report.AddRow()
        .String("series", series)
        .Uint("tuples", trace.size())
        .Double("seconds", seconds)
        .Double("tuples_per_sec", n / seconds)
        .Bool("core_bound", bench::CoreBound(1));
  };
  add_row("tuple", tuple_s);
  add_row("pulse", pulse_s)
      .Uint("tuples_validated", pulse_stats.tuples_validated)
      .Uint("segments_pushed", pulse_stats.segments_pushed)
      .Uint("violations", pulse_stats.violations)
      .Uint("output_segments", pulse_stats.output_segments)
      .Double("macd_short_process_ns_p50", process_p50("macd.short"))
      .Double("macd_long_process_ns_p50", process_p50("macd.long"))
      .Double("macd_join_process_ns_p50", process_p50("macd.join"))
      .Double("macd_diff_process_ns_p50", process_p50("macd.diff"));
  add_row("historical", hist_s)
      .Uint("segments_pushed", hist->stats().segments_pushed)
      .Uint("output_segments", hist->stats().output_segments);
  report.AttachMetrics(pulse_metrics);
  if (!report.WriteFile("BENCH_fig9_nyse.json")) return 1;
  std::printf("\nWrote BENCH_fig9_nyse.json.\n");
  return bench::HandleMetricsOutFlag(argc, argv, pulse_metrics) ? 0 : 1;
}
