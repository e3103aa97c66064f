// Differential suite: replays a fixed battery of generated cases through
// the discrete executor (ground truth on densely sampled tuples) and the
// Pulse runtime (fitted models, metamorphic variants), and requires zero
// divergences. Every failure message carries the seed; replay locally with
//   pulse::testing::RunDifferentialSeed(seed)
// or by running the single named test case again (cases are seed-indexed
// and fully deterministic).

#include "testing/differential.h"

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "testing/plan_gen.h"

namespace pulse {
namespace testing {
namespace {

// Runs one seed and fails with the full report (first divergences, replay
// instructions) on any mismatch.
void RunSeed(uint64_t seed) {
  Result<DiffReport> report = RunDifferentialSeed(seed);
  ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                           << report.status().message();
  EXPECT_TRUE(report->ok()) << report->ToString();
  // A case that produces no output on either side exercises nothing; the
  // generator is tuned so this stays rare, but it must not be silent.
  if (report->discrete_output_tuples == 0 &&
      report->pulse_output_segments == 0) {
    GTEST_LOG_(INFO) << "seed " << seed << " produced empty outputs ("
                     << report->description << ")";
  }
}

class DifferentialSuite : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialSuite, DiscreteAndPulseAgree) { RunSeed(GetParam()); }

// 200 fixed seeds. The base offset is arbitrary but frozen: changing it
// invalidates triaged history (a seed is a bug report identifier).
std::vector<uint64_t> FixedSeeds() {
  std::vector<uint64_t> seeds;
  seeds.reserve(200);
  for (uint64_t i = 0; i < 200; ++i) seeds.push_back(1000 + i);
  return seeds;
}

INSTANTIATE_TEST_SUITE_P(Fixed, DifferentialSuite,
                         ::testing::ValuesIn(FixedSeeds()),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Epoch/distinct battery: 200 more frozen seeds restricted to the
// telemetry archetypes (stream -> epoch, and the Sonata detection shape
// stream -> epoch -> filter -> distinct over bursty telemetry-mode
// workloads). Kept separate from the Fixed battery so its seed -> case
// mapping stays frozen too, and so every seed here exercises the new
// operators across the full metamorphic grid (shards, forced-scalar,
// serving, precision, kill-restore) rather than a 2-in-7 slice of a
// mixed run.
void RunTelemetrySeed(uint64_t seed) {
  PlanGenOptions gen;
  gen.archetypes = {PlanArchetype::kEpochMark,
                    PlanArchetype::kEpochDistinct};
  Result<DiffReport> report = RunDifferentialSeed(seed, gen);
  ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                           << report.status().message();
  EXPECT_TRUE(report->ok()) << report->ToString();
}

class TelemetryDifferentialSuite
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TelemetryDifferentialSuite, EpochDistinctAgree) {
  RunTelemetrySeed(GetParam());
}

// Base offset 3000: disjoint from the Fixed battery (1000+) and the
// env-gated sweep (10000+), and frozen for the same reason.
std::vector<uint64_t> TelemetrySeeds() {
  std::vector<uint64_t> seeds;
  seeds.reserve(200);
  for (uint64_t i = 0; i < 200; ++i) seeds.push_back(3000 + i);
  return seeds;
}

INSTANTIATE_TEST_SUITE_P(Telemetry, TelemetryDifferentialSuite,
                         ::testing::ValuesIn(TelemetrySeeds()),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Guards the distinct oracle against passing vacuously: across the
// first slice of the telemetry battery, detection events must actually
// flow on both sides (the generator's burst probability and threshold
// band are tuned so epoch_distinct cases fire routinely).
TEST(TelemetryDifferential, DetectionEventsAreNotVacuous) {
  PlanGenOptions gen;
  gen.archetypes = {PlanArchetype::kEpochDistinct};
  size_t with_events = 0;
  for (uint64_t seed = 3000; seed < 3020; ++seed) {
    Result<DiffReport> report = RunDifferentialSeed(seed, gen);
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_TRUE(report->ok()) << report->ToString();
    if (report->discrete_output_tuples > 0 &&
        report->pulse_output_segments > 0) {
      ++with_events;
    }
  }
  EXPECT_GE(with_events, 10u)
      << "most epoch_distinct cases should produce detection events";
}

// Regression: HAVING after min/max leaked stale envelope slices. The
// aggregate's first, eager changed-range protocol gave its output stream
// override semantics (a later segment replaced earlier coverage where
// ranges overlapped), but a downstream filter cannot retract a passing
// slice of a piece that was later overridden by one that fails the
// predicate. Found by this harness at the seeds below; fixed by
// PulseMinMaxAggregate's settled, append-only emission, now its only
// protocol.
TEST(Regression, EnvelopeHavingStaleOverride) {
  for (uint64_t seed : {1034u, 1084u, 1185u, 1191u}) RunSeed(seed);
}

// Regression territory the random generator deliberately avoids: kEq
// predicates (plan_gen.cc uses inequalities only). An equality join over
// the *same* attribute of matched keys makes the difference polynomial
// identically zero — the solver's everywhere-zero special case — and
// both engines must report the pair everywhere, not nowhere.
TEST(Regression, ZeroDifferenceEqualityJoin) {
  GeneratedCase kase;
  kase.seed = 0;
  kase.archetype = PlanArchetype::kJoin;
  kase.sample_dt = 0.05;
  Rng rng(424242);
  StreamWorkload ws = GenerateStreamWorkload(rng, "s", {"x", "y"}, 2);

  StreamSpec stream;
  stream.name = ws.name;
  stream.schema = ws.MakeSchema();
  stream.key_field = "id";
  for (const std::string& attr : ws.attributes) {
    stream.models.push_back(ModelClause{attr, {attr}});
  }
  stream.segment_horizon = ws.t_end - ws.t_begin;
  ASSERT_TRUE(kase.spec.AddStream(std::move(stream)).ok());

  JoinSpec js;
  js.window_seconds = 0.5 * kase.sample_dt;
  js.match_keys = true;
  js.predicate = Predicate::Comparison(ComparisonTerm::Simple(
      AttrRef::Left("x"), CmpOp::kEq,
      Operand::Attribute(AttrRef::Right("x"))));
  kase.spec.AddJoin("join", QuerySpec::Input::Stream("s"),
                    QuerySpec::Input::Stream("s"), std::move(js));
  kase.workloads.push_back(std::move(ws));
  kase.sink.kind = SinkInfo::Kind::kPointwise;
  kase.sink.key_field = "pair_key";
  kase.description = "regression: zero-difference equality self-join";

  Result<DiffReport> report = RunDifferential(kase);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->ok()) << report->ToString();
  // The whole point: the pair must exist (x == x holds everywhere).
  EXPECT_GT(report->discrete_output_tuples, 0u);
  EXPECT_GT(report->pulse_output_segments, 0u);
}

// The harness checks the docs/OBSERVABILITY.md metrics invariant on
// every seed: op-name parity across realizations. This pins that the
// check actually ran — metrics_checks counts evaluated checks, and a
// plan with at least one operator evaluates the non-empty check plus
// one name-parity check per operator.
TEST(MetricsInvariants, ChecksAreEvaluatedPerSeed) {
  Result<DiffReport> report = RunDifferentialSeed(1000);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->ok()) << report->ToString();
  EXPECT_GE(report->metrics_checks, 2u) << "metrics invariants were "
                                           "vacuous for seed 1000";
}

// Optional extended sweep for soak runs: PULSE_DIFF_EXTRA=N runs N more
// seeds past the fixed battery. Not part of tier-1 (env-gated).
TEST(DifferentialExtra, EnvGatedSweep) {
  const char* extra = std::getenv("PULSE_DIFF_EXTRA");
  if (extra == nullptr) GTEST_SKIP() << "set PULSE_DIFF_EXTRA=N to enable";
  const uint64_t n = std::strtoull(extra, nullptr, 10);
  for (uint64_t i = 0; i < n; ++i) RunSeed(10000 + i);
}

}  // namespace
}  // namespace testing
}  // namespace pulse
