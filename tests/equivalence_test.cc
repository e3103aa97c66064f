// Randomized continuous-vs-discrete equivalence: for randomly generated
// piecewise models, the time ranges the Pulse operators report must agree
// with pointwise evaluation of the same predicates on densely sampled
// values — the semantic contract of the paper's transformation (modulo
// the discretization differences of Section IV-A, which dense sampling
// away from roots avoids).
#include <cmath>
#include <map>
#include <optional>
#include <utility>

#include <gtest/gtest.h>

#include "core/operators/aggregate.h"
#include "core/operators/distinct.h"
#include "core/operators/filter.h"
#include "core/operators/group_by.h"
#include "core/operators/join.h"
#include "engine/epoch.h"
#include "testing/workload_gen.h"
#include "util/rng.h"

namespace pulse {
namespace {

// Test-name suffix for seed-parameterized suites: failures show the seed
// itself ("/seed101"), not an opaque value index, so any report replays.
std::string SeedName(const ::testing::TestParamInfo<int>& info) {
  return "seed" + std::to_string(info.param);
}

Polynomial RandomPolynomial(Rng& rng, size_t degree) {
  std::vector<double> coeffs;
  coeffs.push_back(rng.Uniform(-20.0, 20.0));
  for (size_t i = 1; i <= degree; ++i) {
    coeffs.push_back(rng.Uniform(-4.0, 4.0) / static_cast<double>(i * i));
  }
  return Polynomial(std::move(coeffs));
}

class RandomFilterEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomFilterEquivalence, SolutionMatchesPointwise) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const size_t degree = 1 + static_cast<size_t>(rng.UniformInt(0, 2));
    const double threshold = rng.Uniform(-15.0, 15.0);
    const CmpOp op = static_cast<CmpOp>(rng.UniformInt(0, 5));
    Segment seg(1, Interval::ClosedOpen(0.0, 10.0));
    seg.id = NextSegmentId();
    seg.set_attribute("x", RandomPolynomial(rng, degree));

    PulseFilter filter("f", Predicate::Comparison(ComparisonTerm::Simple(
                                AttrRef::Left("x"), op,
                                Operand::Constant(threshold))));
    SegmentBatch out;
    ASSERT_TRUE(filter.Process(0, seg, &out).ok());
    IntervalSet solution;
    for (const Segment& s : out) solution.Add(s.range);

    const Polynomial x = *seg.attribute("x");
    for (double t = 0.0137; t < 10.0; t += 0.0713) {
      const double v = x.Evaluate(t) - threshold;
      if (std::abs(v) < 1e-6) continue;  // too close to a root to judge
      bool expected = false;
      switch (op) {
        case CmpOp::kLt:
          expected = v < 0;
          break;
        case CmpOp::kLe:
          expected = v <= 0;
          break;
        case CmpOp::kEq:
          expected = v == 0;
          break;
        case CmpOp::kNe:
          expected = v != 0;
          break;
        case CmpOp::kGe:
          expected = v >= 0;
          break;
        case CmpOp::kGt:
          expected = v > 0;
          break;
      }
      EXPECT_EQ(solution.Contains(t), expected)
          << "trial " << trial << " op " << CmpOpToString(op) << " t=" << t
          << " x(t)-c=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFilterEquivalence,
                         ::testing::Values(101, 202, 303, 404, 505),
                         SeedName);

class RandomJoinEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomJoinEquivalence, JoinRangesMatchPointwise) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    Segment l(1, Interval::ClosedOpen(0.0, 8.0));
    l.id = NextSegmentId();
    l.set_attribute("x", RandomPolynomial(rng, 2));
    Segment r(2, Interval::ClosedOpen(rng.Uniform(0.0, 2.0),
                                      rng.Uniform(5.0, 8.0)));
    r.id = NextSegmentId();
    r.set_attribute("x", RandomPolynomial(rng, 2));

    Predicate pred = Predicate::Comparison(ComparisonTerm::Simple(
        AttrRef::Left("x"), CmpOp::kLt,
        Operand::Attribute(AttrRef::Right("x"))));
    PulseJoinOptions opts;
    opts.window_seconds = 100.0;
    PulseJoin join("j", pred, opts);
    SegmentBatch out;
    ASSERT_TRUE(join.Process(0, l, &out).ok());
    ASSERT_TRUE(join.Process(1, r, &out).ok());
    IntervalSet solution;
    for (const Segment& s : out) solution.Add(s.range);

    const Polynomial lx = *l.attribute("x");
    const Polynomial rx = *r.attribute("x");
    for (double t = 0.0191; t < 8.0; t += 0.0531) {
      const bool both_valid =
          l.range.Contains(t) && r.range.Contains(t);
      const double diff = lx.Evaluate(t) - rx.Evaluate(t);
      if (std::abs(diff) < 1e-6) continue;
      EXPECT_EQ(solution.Contains(t), both_valid && diff < 0.0)
          << "trial " << trial << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomJoinEquivalence,
                         ::testing::Values(11, 22, 33), SeedName);

class RandomDistanceEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomDistanceEquivalence, ProximityRangesMatchPointwise) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    auto make = [&](Key key) {
      Segment s(key, Interval::ClosedOpen(0.0, 10.0));
      s.id = NextSegmentId();
      s.set_attribute("x", RandomPolynomial(rng, 1));
      s.set_attribute("y", RandomPolynomial(rng, 1));
      return s;
    };
    Segment l = make(1);
    Segment r = make(2);
    const double c = rng.Uniform(1.0, 25.0);
    Predicate pred = Predicate::Comparison(ComparisonTerm::Distance2(
        AttrRef::Left("x"), AttrRef::Left("y"), AttrRef::Right("x"),
        AttrRef::Right("y"), CmpOp::kLt, c));
    PulseJoinOptions opts;
    opts.window_seconds = 100.0;
    opts.require_distinct_keys = true;
    PulseJoin join("j", pred, opts);
    SegmentBatch out;
    ASSERT_TRUE(join.Process(0, l, &out).ok());
    ASSERT_TRUE(join.Process(1, r, &out).ok());
    IntervalSet solution;
    for (const Segment& s : out) solution.Add(s.range);

    for (double t = 0.0171; t < 10.0; t += 0.0611) {
      const double dx = l.attribute("x")->Evaluate(t) -
                        r.attribute("x")->Evaluate(t);
      const double dy = l.attribute("y")->Evaluate(t) -
                        r.attribute("y")->Evaluate(t);
      const double margin = dx * dx + dy * dy - c * c;
      if (std::abs(margin) < 1e-5) continue;
      EXPECT_EQ(solution.Contains(t), margin < 0.0)
          << "trial " << trial << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDistanceEquivalence,
                         ::testing::Values(7, 17, 27), SeedName);

// Reconstructs the aggregate's value at time t from emitted segments.
// Min/max emission is append-only, so at most one segment covers t.
std::optional<double> EmittedValue(const SegmentBatch& out,
                                   const std::string& attr, double t) {
  for (auto it = out.rbegin(); it != out.rend(); ++it) {
    if (!it->range.Contains(t)) continue;
    Result<Polynomial> poly = it->attribute(attr);
    if (!poly.ok()) return std::nullopt;
    return poly->Evaluate(t);
  }
  return std::nullopt;
}

// Before Flush, min/max emits only settled pieces: every output of a
// Process call ends at or before that input's range.lo, and each is
// already the final envelope wherever it covers.
class RandomMinMaxEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomMinMaxEquivalence, EnvelopeMatchesGroundTruth) {
  Rng rng(GetParam());
  size_t settled = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const bool is_min = rng.Bernoulli(0.5);
    const size_t keys = static_cast<size_t>(rng.UniformInt(1, 4));
    testing::StreamWorkload ws =
        testing::GenerateStreamWorkload(rng, "s", {"x"}, keys);

    PulseAggregateOptions opts;
    opts.fn = is_min ? AggFn::kMin : AggFn::kMax;
    opts.input_attribute = "x";
    opts.window_seconds = 2.0;
    PulseMinMaxAggregate agg("a", opts);
    SegmentBatch out;
    for (const Segment& seg : ws.ToSegments()) {
      const size_t before = out.size();
      ASSERT_TRUE(agg.Process(0, seg, &out).ok());
      for (size_t i = before; i < out.size(); ++i) {
        EXPECT_LE(out[i].range.hi, seg.range.lo)
            << "seed " << GetParam() << " trial " << trial
            << ": emitted a piece later input could still change";
      }
    }
    settled += out.size();

    for (double t = 0.0173; t < ws.t_end; t += 0.0719) {
      const std::optional<double> expected = ws.Envelope("x", t, is_min);
      const std::optional<double> actual = EmittedValue(out, "agg", t);
      if (!expected.has_value() || !actual.has_value()) continue;
      EXPECT_NEAR(*actual, *expected, 1e-6)
          << "seed " << GetParam() << " trial " << trial << " t=" << t
          << " fn=" << (is_min ? "min" : "max");
    }
  }
  EXPECT_GT(settled, 0u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMinMaxEquivalence,
                         ::testing::Values(41, 42, 43, 44), SeedName);

// After Flush, the settled emission covers the whole envelope with
// append-only, non-overlapping ranges (regression for the
// HAVING-after-min/max staleness bug; see docs/TESTING.md).
class RandomMinMaxFinalizeEquivalence
    : public ::testing::TestWithParam<int> {};

TEST_P(RandomMinMaxFinalizeEquivalence, SettledEmissionMatchesGroundTruth) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const bool is_min = rng.Bernoulli(0.5);
    const size_t keys = static_cast<size_t>(rng.UniformInt(1, 4));
    testing::StreamWorkload ws =
        testing::GenerateStreamWorkload(rng, "s", {"x"}, keys);

    PulseAggregateOptions opts;
    opts.fn = is_min ? AggFn::kMin : AggFn::kMax;
    opts.input_attribute = "x";
    opts.window_seconds = 2.0;
    PulseMinMaxAggregate agg("a", opts);
    SegmentBatch out;
    for (const Segment& seg : ws.ToSegments()) {
      ASSERT_TRUE(agg.Process(0, seg, &out).ok());
    }
    ASSERT_TRUE(agg.Flush(&out).ok());

    // Append-only contract: ranges non-overlapping and time-ordered.
    for (size_t i = 1; i < out.size(); ++i) {
      EXPECT_LE(out[i - 1].range.hi, out[i].range.lo + 1e-12)
          << "seed " << GetParam() << " trial " << trial
          << ": finalized output overlaps or runs backwards at " << i;
    }

    for (double t = 0.0173; t < ws.t_end; t += 0.0719) {
      const std::optional<double> expected = ws.Envelope("x", t, is_min);
      const std::optional<double> actual = EmittedValue(out, "agg", t);
      if (!expected.has_value()) continue;
      ASSERT_TRUE(actual.has_value())
          << "seed " << GetParam() << " trial " << trial << " t=" << t;
      EXPECT_NEAR(*actual, *expected, 1e-6)
          << "seed " << GetParam() << " trial " << trial << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMinMaxFinalizeEquivalence,
                         ::testing::Values(51, 52, 53, 54), SeedName);

class RandomSumAvgEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomSumAvgEquivalence, WindowFunctionMatchesIntegral) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const bool is_sum = rng.Bernoulli(0.5);
    const double w = 1.0 + rng.UniformInt(0, 1);  // 1 or 2 seconds
    // Window functions assume one contiguous coverage track: single key.
    testing::StreamWorkload ws =
        testing::GenerateStreamWorkload(rng, "s", {"x"}, 1);

    PulseAggregateOptions opts;
    opts.fn = is_sum ? AggFn::kSum : AggFn::kAvg;
    opts.input_attribute = "x";
    opts.window_seconds = w;
    opts.slide_seconds = 0.5;
    PulseSumAvgAggregate agg("a", opts);
    SegmentBatch out;
    for (const Segment& seg : ws.ToSegments()) {
      ASSERT_TRUE(agg.Process(0, seg, &out).ok());
    }

    for (const Segment& s : out) {
      for (double t = s.range.lo + 1e-6; t < s.range.hi; t += 0.1) {
        if (t - w < ws.t_begin - 1e-9) continue;  // partial window
        const std::optional<double> integral =
            ws.Integral(1, "x", t - w, t);
        ASSERT_TRUE(integral.has_value());
        const double expected = is_sum ? *integral : *integral / w;
        Result<Polynomial> poly = s.attribute("agg");
        ASSERT_TRUE(poly.ok());
        EXPECT_NEAR(poly->Evaluate(t), expected,
                    1e-6 * std::max(1.0, std::fabs(expected)))
            << "seed " << GetParam() << " trial " << trial << " t=" << t
            << " fn=" << (is_sum ? "sum" : "avg") << " w=" << w;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSumAvgEquivalence,
                         ::testing::Values(61, 62, 63, 64), SeedName);

class RandomGroupByEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomGroupByEquivalence, PerGroupAggregateMatchesGroundTruth) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    const bool is_min = rng.Bernoulli(0.5);
    const size_t keys = static_cast<size_t>(rng.UniformInt(2, 4));
    testing::StreamWorkload ws =
        testing::GenerateStreamWorkload(rng, "s", {"x"}, keys);

    PulseAggregateOptions opts;
    opts.fn = is_min ? AggFn::kMin : AggFn::kMax;
    opts.input_attribute = "x";
    opts.window_seconds = 2.0;
    PulseGroupBy group_by(
        "g", [opts](Key) -> Result<std::unique_ptr<PulseOperator>> {
          return MakePulseAggregate("inner", opts);
        });
    SegmentBatch out;
    for (const Segment& seg : ws.ToSegments()) {
      ASSERT_TRUE(group_by.Process(0, seg, &out).ok());
    }
    ASSERT_TRUE(group_by.Flush(&out).ok());

    // Per group, the "envelope" over one key is just that key's value.
    for (const testing::KeyTrack& track : ws.tracks) {
      SegmentBatch group_out;
      for (const Segment& s : out) {
        if (s.key == track.key) group_out.push_back(s);
      }
      for (double t = 0.0173; t < ws.t_end; t += 0.0719) {
        const std::optional<double> expected = track.Value("x", t);
        const std::optional<double> actual =
            EmittedValue(group_out, "agg", t);
        if (!expected.has_value()) continue;
        ASSERT_TRUE(actual.has_value())
            << "seed " << GetParam() << " trial " << trial << " group "
            << track.key << " t=" << t;
        EXPECT_NEAR(*actual, *expected, 1e-6)
            << "seed " << GetParam() << " trial " << trial << " group "
            << track.key << " t=" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGroupByEquivalence,
                         ::testing::Values(71, 72, 73), SeedName);

// --- Distinct-over-models boundary semantics ---------------------------
// distinct over epoched models is a new equation form: the output is the
// first instant each key's model enters the predicate region within an
// epoch. These tests pin the knife-edge cases — the model entering or
// exiting the region exactly at a segment or epoch boundary — where the
// half-open [kE, (k+1)E) convention decides which epoch (if any) alerts.

Segment BoundarySeg(Key key, double lo, double hi, Polynomial x) {
  Segment s(key, Interval::ClosedOpen(lo, hi));
  s.id = NextSegmentId();
  s.set_attribute("x", std::move(x));
  return s;
}

// Filter -> distinct over one key; returns the distinct events.
SegmentBatch RunDistinctChain(const SegmentBatch& input, CmpOp op,
                              double threshold, double epoch_seconds) {
  PulseFilter filter("f", Predicate::Comparison(ComparisonTerm::Simple(
                              AttrRef::Left("x"), op,
                              Operand::Constant(threshold))));
  PulseDistinct distinct("d", epoch_seconds);
  SegmentBatch out;
  for (const Segment& seg : input) {
    SegmentBatch passed;
    EXPECT_TRUE(filter.Process(0, seg, &passed).ok());
    for (const Segment& p : passed) {
      EXPECT_TRUE(distinct.Process(0, p, &out).ok());
    }
  }
  return out;
}

TEST(DistinctBoundary, EntryExactlyAtEpochBoundary) {
  // x(t) = t - 1 enters x >= 0 at exactly t = 1, the epoch boundary.
  // Half-open epochs put the entry instant in epoch 1; epoch 0 stays
  // silent (the region's first instant is not part of it).
  SegmentBatch in;
  in.push_back(BoundarySeg(1, 0.0, 2.0, Polynomial({-1.0, 1.0})));
  const SegmentBatch out = RunDistinctChain(in, CmpOp::kGe, 0.0, 1.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].range.lo, 1.0);
  EXPECT_EQ(EpochIndexOf(out[0].range.lo, 1.0), 1);
}

TEST(DistinctBoundary, ExitExactlyAtEpochBoundary) {
  // x(t) = 1 - t leaves x > 0 at exactly t = 1: the run is [0, 1), which
  // touches but does not enter epoch 1. One alert, epoch 0, at t = 0.
  SegmentBatch in;
  in.push_back(BoundarySeg(1, 0.0, 2.0, Polynomial({1.0, -1.0})));
  const SegmentBatch out = RunDistinctChain(in, CmpOp::kGt, 0.0, 1.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].range.lo, 0.0);
  EXPECT_LE(out[0].range.hi, 1.0 + 1e-12);
}

TEST(DistinctBoundary, EntryExactlyAtSegmentBoundary) {
  // The model enters the region at the instant one segment hands off to
  // the next (both inside one epoch): the entry instant is the second
  // segment's range.lo, bitwise.
  SegmentBatch in;
  in.push_back(BoundarySeg(1, 0.0, 1.0, Polynomial({-1.0})));
  in.push_back(BoundarySeg(1, 1.0, 2.0, Polynomial({1.0})));
  const SegmentBatch out = RunDistinctChain(in, CmpOp::kGt, 0.0, 2.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].range.lo, 1.0);
  EXPECT_EQ(EpochIndexOf(out[0].range.lo, 2.0), 0);
}

TEST(DistinctBoundary, ContinuousRunAcrossSegmentBoundaryAlertsOnce) {
  // The model stays inside the region across a segment boundary: a new
  // segment is not a new entry, so the epoch alerts exactly once, at the
  // run's true start.
  SegmentBatch in;
  in.push_back(BoundarySeg(1, 0.0, 1.0, Polynomial({1.0})));
  in.push_back(BoundarySeg(1, 1.0, 2.0, Polynomial({1.0})));
  const SegmentBatch out = RunDistinctChain(in, CmpOp::kGt, 0.0, 2.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].range.lo, 0.0);
}

TEST(DistinctBoundary, RunCrossingEpochBoundaryReentersAtBoundary) {
  // A run straddling an epoch boundary alerts in both epochs; the second
  // alert's instant is exactly the boundary (the first instant of the
  // new epoch the model is in the region).
  SegmentBatch in;
  in.push_back(BoundarySeg(1, 0.5, 1.5, Polynomial({1.0})));
  const SegmentBatch out = RunDistinctChain(in, CmpOp::kGt, 0.0, 1.0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].range.lo, 0.5);
  EXPECT_DOUBLE_EQ(out[1].range.lo, 1.0);
  EXPECT_EQ(EpochIndexOf(out[1].range.lo, 1.0), 1);
}

class RandomDistinctEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomDistinctEquivalence, FirstEntryInstantsMatchPointwise) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 6; ++trial) {
    const size_t keys = static_cast<size_t>(rng.UniformInt(1, 3));
    testing::StreamWorkload ws =
        testing::GenerateStreamWorkload(rng, "s", {"x"}, keys);
    const double epoch = 0.5 + 0.25 * rng.UniformInt(0, 3);
    const double thr = rng.Uniform(-0.4, 0.4) * ws.value_bound;
    const double tol = 1e-6 * std::max(1.0, ws.value_bound);

    PulseFilter filter("f", Predicate::Comparison(ComparisonTerm::Simple(
                                AttrRef::Left("x"), CmpOp::kGt,
                                Operand::Constant(thr))));
    PulseDistinct distinct("d", epoch);
    SegmentBatch out;
    for (const Segment& seg : ws.ToSegments()) {
      SegmentBatch passed;
      ASSERT_TRUE(filter.Process(0, seg, &passed).ok());
      for (const Segment& p : passed) {
        ASSERT_TRUE(distinct.Process(0, p, &out).ok());
      }
    }

    // At most one event per (epoch, key), attributed by range midpoint
    // (strictly interior, so boundary rounding cannot misfile it).
    std::map<std::pair<int64_t, Key>, double> events;
    for (const Segment& s : out) {
      const int64_t e =
          EpochIndexOf(s.range.lo + 0.5 * s.range.Length(), epoch);
      auto [it, inserted] =
          events.emplace(std::make_pair(e, s.key), s.range.lo);
      EXPECT_TRUE(inserted)
          << "seed " << GetParam() << " trial " << trial
          << ": duplicate distinct event for epoch " << e << " key "
          << s.key;
    }

    // Pointwise ground truth: wherever the model is robustly inside the
    // region, that (epoch, key) must have an event, and the event starts
    // no later than the first observed inside instant.
    for (const testing::KeyTrack& track : ws.tracks) {
      std::map<int64_t, double> first_pass;
      for (double t = ws.t_begin + 1e-4; t < ws.t_end; t += 0.0137) {
        const std::optional<double> v = track.Value("x", t);
        if (!v.has_value() || *v - thr <= tol) continue;
        first_pass.emplace(EpochIndexOf(t, epoch), t);
      }
      for (const auto& [e, t] : first_pass) {
        auto it = events.find({e, track.key});
        ASSERT_NE(it, events.end())
            << "seed " << GetParam() << " trial " << trial << " epoch "
            << e << " key " << track.key
            << ": model robustly in region at t=" << t
            << " but no distinct event";
        EXPECT_LE(it->second, t + 1e-9)
            << "seed " << GetParam() << " trial " << trial
            << ": event after the first observed entry instant";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDistinctEquivalence,
                         ::testing::Values(81, 82, 83, 84), SeedName);

}  // namespace
}  // namespace pulse
