// Reproduces paper Fig. 7ii: join processing cost vs stream rate
// (100-900 tup/s, window 0.1 s, 1% threshold).
//
// Paper shape: the tuple-based nested-loops join's cost grows
// quadratically with the stream rate (each arrival probes a buffer whose
// population is proportional to the rate); Pulse's cost stays low —
// validation is linear in the number of model coefficients.
#include <cstdio>

#include "bench_util.h"
#include "core/runtime.h"
#include "engine/executor.h"
#include "workload/moving_object.h"

namespace pulse {
namespace {

constexpr double kArea = 1000.0;

std::vector<Tuple> MakeTrace(double rate, double duration_s) {
  MovingObjectOptions opts;
  opts.num_objects = 10;
  opts.tuple_rate = rate;
  opts.tuples_per_segment = 100;
  opts.area = kArea;
  opts.noise = 0.0;
  return MovingObjectGenerator(opts).Generate(
      static_cast<size_t>(rate * duration_s));
}

QuerySpec ProximityJoin(double rate) {
  QuerySpec spec;
  (void)spec.AddStream(
      MovingObjectGenerator::MakeStreamSpec("objects", 100.0 * 10 / rate));
  JoinSpec join;
  join.predicate = Predicate::Comparison(ComparisonTerm::Distance2(
      AttrRef::Left("x"), AttrRef::Left("y"), AttrRef::Right("x"),
      AttrRef::Right("y"), CmpOp::kLt, kArea / 10.0));
  join.window_seconds = 0.1;  // Fig. 6: window size 0.1 s
  join.require_distinct_keys = true;
  spec.AddJoin("join", QuerySpec::Input::Stream("objects"),
               QuerySpec::Input::Stream("objects"), join);
  return spec;
}

}  // namespace
}  // namespace pulse

int main() {
  using namespace pulse;
  const double kDuration = 60.0;
  std::printf("Fig 7ii reproduction: %g s of stream per rate\n", kDuration);

  bench::SeriesTable table(
      "Fig 7ii: join processing cost vs stream rate (window 0.1 s)",
      "rate_tps",
      {"tuple_cost_s", "pulse_cost_s", "tuple_comparisons"});

  for (double rate = 100.0; rate <= 900.0; rate += 200.0) {
    const std::vector<Tuple> trace = MakeTrace(rate, kDuration);
    const QuerySpec spec = ProximityJoin(rate);

    Result<DiscretePlan> dplan = BuildDiscretePlan(spec);
    Result<Executor> dexec = Executor::Make(std::move(dplan->plan));
    dexec->set_discard_output(true);
    const double tuple_cost = bench::MeasureSeconds([&] {
      for (const Tuple& t : trace) {
        (void)dexec->PushTuple("objects", t);
      }
    });
    uint64_t comparisons = 0;
    for (size_t n = 0; n < dexec->plan().num_nodes(); ++n) {
      comparisons += dexec->plan().node(n)->metrics().comparisons->value();
    }

    PredictiveRuntime::Options opts;
    opts.bounds = {BoundSpec::Relative("left.x", 0.01)};
    opts.collect_outputs = false;
    Result<PredictiveRuntime> rt =
        PredictiveRuntime::Make(spec, std::move(opts));
    const double pulse_cost = bench::MeasureSeconds([&] {
      for (const Tuple& t : trace) {
        (void)rt->ProcessTuple("objects", t);
      }
    });

    table.AddRow(rate, {tuple_cost, pulse_cost,
                        static_cast<double>(comparisons)});
  }
  table.Print();
  std::printf(
      "\nExpected shape (paper): tuple cost (and its comparison count) "
      "grows quadratically with rate;\npulse cost remains significantly "
      "lower and near-flat.\n");
  return 0;
}
