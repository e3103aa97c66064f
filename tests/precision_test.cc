// Adaptive precision (docs/PRECISION.md): the controller's hysteresis,
// the AdaptiveRuntime's settled-output identity and conservation
// accounting, the provisional/confirm/retract frame codec, and the
// end-to-end adaptive serving session.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/precision.h"
#include "core/runtime.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "workload/moving_object.h"

namespace pulse {
namespace {

using serve::EncodeFrameToString;
using serve::Frame;
using serve::FrameReader;
using serve::FrameType;
using serve::AdmissionController;
using serve::AdmissionOptions;
using serve::PrecisionOptions;

// ---------------------------------------------------------------------
// Shared fixtures (same filter query the serving tests use).

QuerySpec FilterQuerySpec(double threshold) {
  QuerySpec spec;
  EXPECT_TRUE(
      spec.AddStream(MovingObjectGenerator::MakeStreamSpec("objects", 5.0))
          .ok());
  FilterSpec filter;
  filter.predicate = Predicate::Comparison(ComparisonTerm::Simple(
      AttrRef::Left("x"), CmpOp::kLt, Operand::Constant(threshold)));
  spec.AddFilter("f", QuerySpec::Input::Stream("objects"), filter);
  return spec;
}

Tuple ObjectTuple(double ts, int64_t id, double x, double vx) {
  return Tuple(ts,
               {Value(id), Value(x), Value(0.0), Value(vx), Value(0.0)});
}

// Piecewise-linear x trace with mild curvature changes, long enough to
// produce several segments per precision episode.
std::vector<Tuple> PiecewiseTrace(int n) {
  std::vector<Tuple> trace;
  trace.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double t = i * 0.05;
    const double x = t < 7.5 ? 2.0 * t : 30.0 - 2.0 * t;
    trace.push_back(ObjectTuple(t, 1, x, 0.0));
  }
  return trace;
}

HistoricalRuntime::Options TightOptions() {
  HistoricalRuntime::Options options;
  options.segmentation.degree = 1;
  options.segmentation.max_error = 0.05;
  options.collect_outputs = true;
  return options;
}

void ExpectSameSegments(const std::vector<Segment>& a,
                        const std::vector<Segment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << "segment " << i;
    EXPECT_EQ(a[i].range.lo, b[i].range.lo) << "segment " << i;
    EXPECT_EQ(a[i].range.hi, b[i].range.hi) << "segment " << i;
    EXPECT_EQ(a[i].range.lo_open, b[i].range.lo_open) << "segment " << i;
    EXPECT_EQ(a[i].range.hi_open, b[i].range.hi_open) << "segment " << i;
    ASSERT_EQ(a[i].attributes.size(), b[i].attributes.size());
    for (const auto& [name, poly] : a[i].attributes) {
      auto it = b[i].attributes.find(name);
      ASSERT_NE(it, b[i].attributes.end()) << name;
      ASSERT_EQ(poly.degree(), it->second.degree()) << name;
      for (size_t k = 0; k <= poly.degree(); ++k) {
        EXPECT_EQ(poly.coeff(k), it->second.coeff(k))
            << name << " coeff " << k;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Precision-tier hysteresis of the session's AdmissionController, with
// load shedding off so the tier ladder is tested alone.

AdmissionController TierController(int forced_tier = -1,
                                   bool enabled = true) {
  AdmissionOptions admission;
  admission.enabled = false;
  PrecisionOptions precision;
  precision.enabled = enabled;
  precision.forced_tier = forced_tier;
  return AdmissionController(admission, precision, {});
}

// The tier after one full dwell of admissions at `depth` (of 100).
size_t TierAfterDwell(AdmissionController* controller, size_t depth) {
  size_t tier = 0;
  for (uint64_t i = 0; i < serve::kTierDwell; ++i) {
    tier = controller->Admit(depth, 100).tier;
  }
  return tier;
}

TEST(PrecisionController, WidensUnderQueuePressureAndTightensOnRelief) {
  AdmissionController controller = TierController();
  EXPECT_EQ(controller.Admit(10, 100).tier, 0u);
  // Above the widen watermark (0.60): one tier per dwell.
  EXPECT_EQ(TierAfterDwell(&controller, 70), 1u);
  EXPECT_EQ(TierAfterDwell(&controller, 70), 2u);
  // Clamped at the ladder top (the default ladder has two rungs).
  EXPECT_EQ(TierAfterDwell(&controller, 99), 2u);
  // Inside the dead zone [tighten, widen]: holds.
  EXPECT_EQ(TierAfterDwell(&controller, 40), 2u);
  // Below the tighten watermark (0.25): steps back down.
  EXPECT_EQ(TierAfterDwell(&controller, 10), 1u);
  EXPECT_EQ(TierAfterDwell(&controller, 10), 0u);
  EXPECT_EQ(controller.widen_events(), 2u);
  EXPECT_EQ(controller.tighten_events(), 2u);
}

TEST(PrecisionController, CooldownHoldsTierThroughStepLoad) {
  AdmissionController controller = TierController();
  // A step to sustained pressure: the tier must ramp monotonically, one
  // move per dwell window — never flap.
  size_t prev = 0;
  size_t moves = 0;
  for (uint64_t i = 1; i <= 3 * serve::kTierDwell; ++i) {
    const size_t tier = controller.Admit(80, 100).tier;
    ASSERT_GE(tier, prev) << "tier must not drop under sustained pressure";
    if (tier != prev) {
      ++moves;
      EXPECT_EQ(i % serve::kTierDwell, 0u) << "moved inside the dwell";
    }
    prev = tier;
  }
  EXPECT_EQ(prev, 2u);
  EXPECT_EQ(moves, 2u);
  // Step back to idle: same discipline downward.
  moves = 0;
  for (uint64_t i = 1; i <= 3 * serve::kTierDwell; ++i) {
    const size_t tier = controller.Admit(5, 100).tier;
    ASSERT_LE(tier, prev) << "tier must not rise after the load steps off";
    if (tier != prev) ++moves;
    prev = tier;
  }
  EXPECT_EQ(prev, 0u);
  EXPECT_EQ(moves, 2u);
}

TEST(PrecisionController, OscillatingLoadInsideDeadZoneNeverMoves) {
  AdmissionController controller = TierController();
  // Depth flapping across the middle of the band but never beyond a
  // watermark, for several dwells: the dead zone absorbs it entirely.
  for (uint64_t i = 0; i < 4 * serve::kTierDwell; ++i) {
    EXPECT_EQ(controller.Admit(i % 2 == 0 ? 30 : 55, 100).tier, 0u);
  }
  EXPECT_EQ(controller.widen_events(), 0u);
  EXPECT_EQ(controller.tighten_events(), 0u);
}

TEST(PrecisionController, ForcedTierPinsAndIgnoresSignals) {
  AdmissionController controller = TierController(/*forced_tier=*/1);
  EXPECT_EQ(controller.Admit(0, 100).tier, 1u);
  EXPECT_EQ(TierAfterDwell(&controller, 100), 1u);
  EXPECT_EQ(controller.widen_events(), 0u);
}

TEST(PrecisionController, DisabledStaysAtTierZero) {
  AdmissionController controller =
      TierController(/*forced_tier=*/-1, /*enabled=*/false);
  EXPECT_EQ(TierAfterDwell(&controller, 100), 0u);
}

// ---------------------------------------------------------------------
// Frame codec for the precision side-band.

TEST(PrecisionFrames, ProvisionalRoundTripPreservesLineageBoundSegment) {
  Segment s(-3, Interval::ClosedOpen(1.5, 2.5));
  s.id = 77;
  s.set_attribute("x", Polynomial({0.1, -2.0, 3.5}));
  s.unmodeled["c"] = 4.25;
  Frame in = Frame::Provisional(0xDEADBEEFCAFEull, 0.125, s);
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(EncodeFrameToString(in)).ok());
  Result<std::optional<Frame>> out = reader.Next();
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->has_value());
  EXPECT_EQ((*out)->type, FrameType::kProvisional);
  EXPECT_EQ((*out)->lineage, 0xDEADBEEFCAFEull);
  EXPECT_EQ((*out)->bound, 0.125);  // bit-exact, like every codec double
  ASSERT_EQ((*out)->segments.size(), 1u);
  EXPECT_EQ((*out)->segments[0].key, -3);
  EXPECT_EQ((*out)->segments[0].attributes.at("x").coeff(2), 3.5);
  EXPECT_EQ((*out)->segments[0].unmodeled.at("c"), 4.25);
}

TEST(PrecisionFrames, ConfirmAndRetractRoundTrip) {
  FrameReader reader;
  ASSERT_TRUE(
      reader.Feed(EncodeFrameToString(Frame::Confirm(42))).ok());
  ASSERT_TRUE(
      reader.Feed(EncodeFrameToString(Frame::Retract(43, 1))).ok());
  Result<std::optional<Frame>> confirm = reader.Next();
  ASSERT_TRUE(confirm.ok());
  ASSERT_TRUE(confirm->has_value());
  EXPECT_EQ((*confirm)->type, FrameType::kConfirm);
  EXPECT_EQ((*confirm)->lineage, 42u);
  Result<std::optional<Frame>> retract = reader.Next();
  ASSERT_TRUE(retract.ok());
  ASSERT_TRUE(retract->has_value());
  EXPECT_EQ((*retract)->type, FrameType::kRetract);
  EXPECT_EQ((*retract)->lineage, 43u);
  EXPECT_EQ((*retract)->retract_reason, 1);
}

TEST(PrecisionFrames, ProvisionalWithoutSegmentEncodesEmptySegment) {
  // A hand-built provisional frame with no segment must not throw from
  // inside the encoder; it round-trips as an empty segment.
  Frame in;
  in.type = FrameType::kProvisional;
  in.lineage = 9;
  in.bound = 0.5;
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(EncodeFrameToString(in)).ok());
  Result<std::optional<Frame>> out = reader.Next();
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->has_value());
  EXPECT_EQ((*out)->type, FrameType::kProvisional);
  EXPECT_EQ((*out)->lineage, 9u);
  ASSERT_EQ((*out)->segments.size(), 1u);
  EXPECT_TRUE((*out)->segments[0].attributes.empty());
}

TEST(PrecisionFrames, RetractReasonOutOfRangeRejected) {
  Frame bad = Frame::Retract(1, 0);
  std::string bytes = EncodeFrameToString(bad);
  bytes[bytes.size() - 1] = 2;  // reason byte is the last payload byte
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(bytes).ok());
  EXPECT_FALSE(reader.Next().ok());
}

// ---------------------------------------------------------------------
// AdaptiveRuntime: settled identity + conservation.

TEST(AdaptiveRuntime, TierZeroIsPassthrough) {
  const QuerySpec spec = FilterQuerySpec(100.0);
  const std::vector<Tuple> trace = PiecewiseTrace(300);

  Result<HistoricalRuntime> direct =
      HistoricalRuntime::Make(spec, TightOptions());
  ASSERT_TRUE(direct.ok());
  for (const Tuple& t : trace) {
    ASSERT_TRUE(direct->ProcessTuple("objects", t).ok());
  }
  ASSERT_TRUE(direct->Finish().ok());
  const std::vector<Segment> expected = direct->TakeOutputSegments();
  ASSERT_FALSE(expected.empty());

  Result<std::unique_ptr<AdaptiveRuntime>> adaptive =
      AdaptiveRuntime::Make(spec, TightOptions());
  ASSERT_TRUE(adaptive.ok());
  for (const Tuple& t : trace) {
    ASSERT_TRUE((*adaptive)->ProcessTuple("objects", t).ok());
  }
  ASSERT_TRUE((*adaptive)->Finish().ok());
  ExpectSameSegments(expected, (*adaptive)->TakeSettledOutputs());
  EXPECT_EQ((*adaptive)->stats().provisional, 0u);
  EXPECT_EQ((*adaptive)->TakeProvisionals().size(), 0u);
  EXPECT_EQ((*adaptive)->TakeVerdicts().size(), 0u);
}

TEST(AdaptiveRuntime, WidenedEpisodeSettlesIdenticallyAndConserves) {
  const QuerySpec spec = FilterQuerySpec(100.0);
  const std::vector<Tuple> trace = PiecewiseTrace(600);

  Result<HistoricalRuntime> direct =
      HistoricalRuntime::Make(spec, TightOptions());
  ASSERT_TRUE(direct.ok());
  for (const Tuple& t : trace) {
    ASSERT_TRUE(direct->ProcessTuple("objects", t).ok());
  }
  ASSERT_TRUE(direct->Finish().ok());
  const std::vector<Segment> expected = direct->TakeOutputSegments();

  Result<std::unique_ptr<AdaptiveRuntime>> made =
      AdaptiveRuntime::Make(spec, TightOptions());
  ASSERT_TRUE(made.ok());
  AdaptiveRuntime& rt = **made;
  std::vector<Segment> settled;
  std::vector<ProvisionalRecord> provisionals;
  std::vector<VerdictRecord> verdicts;
  auto harvest = [&] {
    for (Segment& s : rt.TakeSettledOutputs()) {
      settled.push_back(std::move(s));
    }
    for (ProvisionalRecord& p : rt.TakeProvisionals()) {
      provisionals.push_back(std::move(p));
    }
    for (VerdictRecord& v : rt.TakeVerdicts()) verdicts.push_back(v);
  };
  // Exact third / widened third (tier 1 then 2) / exact third: covers
  // widen-from-exact, a tier-to-tier episode switch, the reconcile back
  // to exact, and Finish-time settlement.
  for (size_t i = 0; i < trace.size(); ++i) {
    size_t tier = 0;
    if (i >= 200 && i < 300) tier = 1;
    if (i >= 300 && i < 400) tier = 2;
    ASSERT_TRUE(rt.SetTier(tier).ok());
    ASSERT_TRUE(rt.ProcessTuple("objects", trace[i]).ok());
    harvest();
  }
  ASSERT_TRUE(rt.Finish().ok());
  harvest();

  // The settled stream is byte-identical to the static run: the lever
  // changed when the exact work happened, never its result.
  ExpectSameSegments(expected, settled);

  // The widened stretch actually produced provisionals, and every one
  // settled exactly once (conservation).
  const PrecisionStats& stats = rt.stats();
  ASSERT_GT(stats.provisional, 0u);
  EXPECT_EQ(stats.provisional, provisionals.size());
  EXPECT_EQ(stats.provisional, stats.confirmed + stats.retracted);
  EXPECT_EQ(stats.open(), 0u);
  EXPECT_EQ(verdicts.size(), provisionals.size());
  EXPECT_GE(stats.widen_events, 1u);
  EXPECT_GE(stats.tighten_events, 1u);
  EXPECT_EQ(stats.deferred_items, stats.replayed_items);

  // Every verdict references a previously emitted provisional lineage,
  // and the provisional always precedes its verdict in emission order.
  std::set<uint64_t> seen;
  size_t next_provisional = 0;
  std::set<uint64_t> judged;
  for (const VerdictRecord& v : verdicts) {
    while (next_provisional < provisionals.size() &&
           seen.count(v.lineage) == 0) {
      seen.insert(provisionals[next_provisional++].lineage);
    }
    EXPECT_TRUE(seen.count(v.lineage) > 0)
        << "verdict for lineage " << v.lineage
        << " arrived before its provisional";
    EXPECT_TRUE(judged.insert(v.lineage).second)
        << "lineage " << v.lineage << " settled twice";
  }
}

// Curved trace: degree-1 segmentation cannot represent it exactly, so
// the widened budget's longer pieces genuinely deviate from the exact
// fit — unlike PiecewiseTrace, where both budgets recover the same line
// and every probe deviation is zero.
std::vector<Tuple> CurvedTrace(int n) {
  std::vector<Tuple> trace;
  trace.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double t = i * 0.05;
    trace.push_back(ObjectTuple(t, 1, 0.15 * t * t, 0.0));
  }
  return trace;
}

TEST(AdaptiveRuntime, HonestBoundsConfirmTightBoundsRetract) {
  const QuerySpec spec = FilterQuerySpec(1e9);
  const std::vector<Tuple> trace = CurvedTrace(600);

  // A generous bound must confirm everything...
  AdaptivePrecisionOptions generous;
  generous.ladder = {PrecisionTier{8.0, 1e6}};
  Result<std::unique_ptr<AdaptiveRuntime>> big =
      AdaptiveRuntime::Make(spec, TightOptions(), generous);
  ASSERT_TRUE(big.ok());
  // ...and an absurdly tight one must retract whatever actually
  // deviates (the coarse model differs from the exact one by
  // construction on this trace).
  AdaptivePrecisionOptions strict;
  strict.ladder = {PrecisionTier{8.0, 1e-12}};
  Result<std::unique_ptr<AdaptiveRuntime>> small =
      AdaptiveRuntime::Make(spec, TightOptions(), strict);
  ASSERT_TRUE(small.ok());

  for (AdaptiveRuntime* rt : {big->get(), small->get()}) {
    for (size_t i = 0; i < trace.size(); ++i) {
      ASSERT_TRUE(
          rt->SetTier(i >= 200 && i < 400 ? 1 : 0).ok());
      ASSERT_TRUE(rt->ProcessTuple("objects", trace[i]).ok());
    }
    ASSERT_TRUE(rt->Finish().ok());
    ASSERT_GT(rt->stats().provisional, 0u);
    EXPECT_EQ(rt->stats().open(), 0u);
  }
  EXPECT_EQ((*big)->stats().retracted, 0u);
  EXPECT_GT((*small)->stats().retracted, 0u);
  for (const VerdictRecord& v : (*small)->TakeVerdicts()) {
    if (!v.confirmed) {
      EXPECT_EQ(v.reason, RetractReason::kDeviation);
    }
  }
}

TEST(AdaptiveRuntime, MaxDeferredBackstopForcesReconcile) {
  const QuerySpec spec = FilterQuerySpec(100.0);
  AdaptivePrecisionOptions precision;
  precision.max_deferred = 32;
  Result<std::unique_ptr<AdaptiveRuntime>> made =
      AdaptiveRuntime::Make(spec, TightOptions(), precision);
  ASSERT_TRUE(made.ok());
  AdaptiveRuntime& rt = **made;
  ASSERT_TRUE(rt.SetTier(1).ok());
  const std::vector<Tuple> trace = PiecewiseTrace(200);
  for (const Tuple& t : trace) {
    ASSERT_TRUE(rt.ProcessTuple("objects", t).ok());
  }
  // The cap (32) is far below the feed size: the backstop must have
  // reconciled, bounding deferred memory, and dropped the runtime back
  // to the exact tier (re-widening is the controller's call — in the
  // serving path the next admitted item's tier stamp makes it).
  EXPECT_GE(rt.stats().forced_reconciles, 1u);
  EXPECT_EQ(rt.tier(), 0u);
  EXPECT_LE(rt.stats().deferred_items, trace.size());
  ASSERT_TRUE(rt.Finish().ok());
  EXPECT_EQ(rt.stats().open(), 0u);
  // Everything deferred was replayed; items arriving after the forced
  // reconcile took the exact path directly.
  EXPECT_EQ(rt.stats().replayed_items, rt.stats().deferred_items);
}

// Regression: when the backstop reconciles in the middle of a
// ProcessTuples batch, the batch tail must still reach the exact
// runtime in order — an early version left it stranded in the deferral
// buffer (never replayed at tier 0), silently dropping settled output.
TEST(AdaptiveRuntime, BackstopMidBatchLosesNothing) {
  const QuerySpec spec = FilterQuerySpec(100.0);
  const std::vector<Tuple> trace = PiecewiseTrace(300);

  Result<HistoricalRuntime> direct =
      HistoricalRuntime::Make(spec, TightOptions());
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(
      direct->ProcessTuples("objects", trace.data(), trace.size()).ok());
  ASSERT_TRUE(direct->Finish().ok());
  const std::vector<Segment> expected = direct->TakeOutputSegments();
  ASSERT_FALSE(expected.empty());

  AdaptivePrecisionOptions precision;
  precision.max_deferred = 32;  // fires mid-batch, several times
  Result<std::unique_ptr<AdaptiveRuntime>> made =
      AdaptiveRuntime::Make(spec, TightOptions(), precision);
  ASSERT_TRUE(made.ok());
  AdaptiveRuntime& rt = **made;
  ASSERT_TRUE(rt.SetTier(1).ok());
  // One batch far larger than the cap: tuples past the forced reconcile
  // must take the exact path directly.
  ASSERT_TRUE(rt.ProcessTuples("objects", trace.data(), trace.size()).ok());
  EXPECT_GE(rt.stats().forced_reconciles, 1u);
  EXPECT_EQ(rt.tier(), 0u);
  ASSERT_TRUE(rt.Finish().ok());
  ExpectSameSegments(expected, rt.TakeSettledOutputs());
  EXPECT_EQ(rt.stats().replayed_items, rt.stats().deferred_items);
  EXPECT_EQ(rt.stats().open(), 0u);
}

// Regression: a non-final reconcile must not confirm a provisional whose
// range the exact replay has only partially covered — the uncovered tail
// (the exact runtime's in-flight final piece) could still deviate, and a
// confirm cannot be retracted. It stays open and settles once later
// tier-0 output completes the coverage.
TEST(AdaptiveRuntime, PartialCoverageStaysOpenAcrossReconcile) {
  const QuerySpec spec = FilterQuerySpec(1e9);
  const std::vector<Tuple> trace = CurvedTrace(600);

  AdaptivePrecisionOptions precision;
  precision.ladder = {PrecisionTier{64.0, 1e6}};
  // Dense probes: the last provisional's tail — beyond the exact side's
  // last emitted breakpoint at reconcile time — is sure to catch one.
  precision.probe_points = 64;
  Result<std::unique_ptr<AdaptiveRuntime>> made =
      AdaptiveRuntime::Make(spec, TightOptions(), precision);
  ASSERT_TRUE(made.ok());
  AdaptiveRuntime& rt = **made;

  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(rt.SetTier(i >= 100 ? 1 : 0).ok());
    ASSERT_TRUE(rt.ProcessTuple("objects", trace[i]).ok());
  }
  ASSERT_TRUE(rt.SetTier(0).ok());  // mid-stream reconcile
  ASSERT_GT(rt.stats().provisional, 0u);
  // The trailing provisional's coverage is incomplete: it must still be
  // open, not confirmed on the covered prefix alone.
  EXPECT_GT(rt.stats().open(), 0u);

  for (size_t i = 300; i < trace.size(); ++i) {
    ASSERT_TRUE(rt.ProcessTuple("objects", trace[i]).ok());
  }
  ASSERT_TRUE(rt.Finish().ok());
  EXPECT_EQ(rt.stats().open(), 0u);
  EXPECT_EQ(rt.stats().provisional,
            rt.stats().confirmed + rt.stats().retracted);
}

// Regression: the tier-0 steady state (and any stretch with nothing
// open) must not retain probe-timeline copies of the output stream —
// that is unbounded growth in exactly the mode meant to be free.
TEST(AdaptiveRuntime, TierZeroRetainsNoProbeTimelines) {
  const QuerySpec spec = FilterQuerySpec(100.0);
  const std::vector<Tuple> trace = PiecewiseTrace(600);
  Result<std::unique_ptr<AdaptiveRuntime>> made =
      AdaptiveRuntime::Make(spec, TightOptions());
  ASSERT_TRUE(made.ok());
  AdaptiveRuntime& rt = **made;
  // Pure tier-0 session: no copies, ever.
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(rt.ProcessTuple("objects", trace[i]).ok());
    ASSERT_EQ(rt.probe_timeline_segments(), 0u);
  }
  // A widen/reconcile cycle may retain while provisionals are open, but
  // once everything settles the index must drain back to empty.
  for (size_t i = 300; i < trace.size(); ++i) {
    ASSERT_TRUE(rt.SetTier(i < 450 ? 1 : 0).ok());
    ASSERT_TRUE(rt.ProcessTuple("objects", trace[i]).ok());
    if (rt.stats().open() == 0) {
      EXPECT_EQ(rt.probe_timeline_segments(), 0u) << "tuple " << i;
    }
  }
  ASSERT_TRUE(rt.Finish().ok());
  EXPECT_EQ(rt.probe_timeline_segments(), 0u);
}

TEST(AdaptiveRuntime, RejectsDegenerateLadders) {
  const QuerySpec spec = FilterQuerySpec(100.0);
  AdaptivePrecisionOptions empty;
  empty.ladder.clear();
  EXPECT_FALSE(AdaptiveRuntime::Make(spec, TightOptions(), empty).ok());
  AdaptivePrecisionOptions shrink;
  shrink.ladder = {PrecisionTier{0.5, 1.0}};
  EXPECT_FALSE(AdaptiveRuntime::Make(spec, TightOptions(), shrink).ok());
  AdaptivePrecisionOptions free_lunch;
  free_lunch.ladder = {PrecisionTier{4.0, 0.0}};
  EXPECT_FALSE(
      AdaptiveRuntime::Make(spec, TightOptions(), free_lunch).ok());
}

// ---------------------------------------------------------------------
// End-to-end adaptive serving session.

serve::ServerOptions AdaptiveServerOptions(int forced_tier) {
  serve::ServerOptions options;
  options.spec = FilterQuerySpec(100.0);
  options.runtime.segmentation.degree = 1;
  options.runtime.segmentation.max_error = 0.05;
  options.session.policy = serve::BackpressurePolicy::kBlock;
  options.session.admission.enabled = false;
  options.session.precision.enabled = true;
  options.session.precision.forced_tier = forced_tier;
  return options;
}

TEST(AdaptiveSession, SettledStreamMatchesStaticSessionOverTheWire) {
  const std::vector<Tuple> trace = PiecewiseTrace(400);

  // Static session.
  serve::ServerOptions static_options = AdaptiveServerOptions(0);
  static_options.session.precision.enabled = false;
  Result<std::unique_ptr<serve::StreamServer>> static_server =
      serve::StreamServer::Make(std::move(static_options));
  ASSERT_TRUE(static_server.ok());
  Result<std::unique_ptr<serve::Transport>> static_conn =
      (*static_server)->ConnectInProcess();
  ASSERT_TRUE(static_conn.ok());
  serve::ServeClient static_client(std::move(*static_conn));
  ASSERT_TRUE(static_client.Hello().ok());
  ASSERT_TRUE(static_client.OpenStream(1, "objects").ok());
  for (const Tuple& t : trace) {
    ASSERT_TRUE(static_client.SendTuple(1, t).ok());
  }
  Result<serve::ServeClient::DrainResult> static_drained =
      static_client.Drain();
  ASSERT_TRUE(static_drained.ok());
  (*static_server)->Drain();
  ASSERT_FALSE(static_drained->output_segments.empty());
  EXPECT_TRUE(static_drained->provisionals.empty());

  // Adaptive session pinned to a widened tier for the whole run: every
  // answer is provisional until the drain-time reconcile settles them.
  Result<std::unique_ptr<serve::StreamServer>> adaptive_server =
      serve::StreamServer::Make(AdaptiveServerOptions(1));
  ASSERT_TRUE(adaptive_server.ok());
  Result<std::unique_ptr<serve::Transport>> conn =
      (*adaptive_server)->ConnectInProcess();
  ASSERT_TRUE(conn.ok());
  serve::ServeClient client(std::move(*conn));
  ASSERT_TRUE(client.Hello().ok());
  ASSERT_TRUE(client.OpenStream(1, "objects").ok());
  for (const Tuple& t : trace) {
    ASSERT_TRUE(client.SendTuple(1, t).ok());
  }
  Result<serve::ServeClient::DrainResult> drained = client.Drain();
  ASSERT_TRUE(drained.ok());

  // Same settled bytes on the same frame type, despite the detour
  // through the coarse model and the provisional side-band.
  ExpectSameSegments(static_drained->output_segments,
                     drained->output_segments);

  // Wire-level conservation: every provisional got exactly one verdict
  // by the time kDrained arrived, and verdicts only name emitted
  // lineages.
  ASSERT_FALSE(drained->provisionals.empty());
  EXPECT_EQ(drained->provisionals.size(),
            drained->confirmed.size() + drained->retracted.size());
  std::set<uint64_t> emitted;
  for (const auto& p : drained->provisionals) {
    EXPECT_TRUE(emitted.insert(p.lineage).second);
    EXPECT_GT(p.bound, 0.0);
  }
  std::set<uint64_t> judged;
  for (const uint64_t lineage : drained->confirmed) {
    EXPECT_TRUE(emitted.count(lineage) > 0);
    EXPECT_TRUE(judged.insert(lineage).second);
  }
  for (const auto& [lineage, reason] : drained->retracted) {
    EXPECT_TRUE(emitted.count(lineage) > 0);
    EXPECT_TRUE(judged.insert(lineage).second);
    EXPECT_LE(reason, 1);
  }
  EXPECT_EQ(judged.size(), emitted.size());

  // The serve registry mirrors the runtime's accounting (moot in the
  // -DPULSE_NO_METRICS build, where snapshots are empty by design).
  obs::MetricsSnapshot snapshot = (*adaptive_server)->metrics()->Snapshot();
  (*adaptive_server)->Drain();
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(snapshot.counters["precision/provisional"],
              drained->provisionals.size());
    EXPECT_EQ(snapshot.counters["precision/confirmed"],
              drained->confirmed.size());
    EXPECT_EQ(snapshot.counters["precision/retracted"],
              drained->retracted.size());
  }
}

// The precision/* counters are server-wide: each session adds what it
// wrote, so with two sessions they hold the sum of both clients'
// verdict streams, not whichever session flushed last. An adaptive
// session also takes no client of the shard pool, so the shards build
// no runtime for it and export no runtime/* series.
TEST(AdaptiveSession, ServerCountersSumOverSessions) {
  Result<std::unique_ptr<serve::StreamServer>> server =
      serve::StreamServer::Make(AdaptiveServerOptions(1));
  ASSERT_TRUE(server.ok());
  uint64_t provisional = 0;
  uint64_t confirmed = 0;
  uint64_t retracted = 0;
  for (const int n : {400, 200}) {
    const std::vector<Tuple> trace = PiecewiseTrace(n);
    Result<std::unique_ptr<serve::Transport>> conn =
        (*server)->ConnectInProcess();
    ASSERT_TRUE(conn.ok());
    serve::ServeClient client(std::move(*conn));
    ASSERT_TRUE(client.Hello().ok());
    ASSERT_TRUE(client.OpenStream(1, "objects").ok());
    for (const Tuple& t : trace) {
      ASSERT_TRUE(client.SendTuple(1, t).ok());
    }
    Result<serve::ServeClient::DrainResult> drained = client.Drain();
    ASSERT_TRUE(drained.ok());
    ASSERT_FALSE(drained->provisionals.empty());
    provisional += drained->provisionals.size();
    confirmed += drained->confirmed.size();
    retracted += drained->retracted.size();
  }
  (*server)->Drain();
  if (!obs::kMetricsEnabled) return;
  obs::MetricsSnapshot snapshot = (*server)->Snapshot();
  EXPECT_EQ(snapshot.counters["precision/provisional"], provisional);
  EXPECT_EQ(snapshot.counters["precision/confirmed"], confirmed);
  EXPECT_EQ(snapshot.counters["precision/retracted"], retracted);
  EXPECT_EQ(snapshot.counters.count("runtime/tuples_in"), 0u);
  EXPECT_EQ((*server)->pool().shard_metrics(0)->Snapshot().counters.count(
                "runtime/tuples_in"),
            0u);
}

TEST(AdaptiveSession, DisabledPrecisionEmitsNoSideBand) {
  const std::vector<Tuple> trace = PiecewiseTrace(100);
  serve::ServerOptions options = AdaptiveServerOptions(0);
  options.session.precision.enabled = false;
  Result<std::unique_ptr<serve::StreamServer>> server =
      serve::StreamServer::Make(std::move(options));
  ASSERT_TRUE(server.ok());
  Result<std::unique_ptr<serve::Transport>> conn =
      (*server)->ConnectInProcess();
  ASSERT_TRUE(conn.ok());
  serve::ServeClient client(std::move(*conn));
  ASSERT_TRUE(client.Hello().ok());
  ASSERT_TRUE(client.OpenStream(1, "objects").ok());
  for (const Tuple& t : trace) {
    ASSERT_TRUE(client.SendTuple(1, t).ok());
  }
  Result<serve::ServeClient::DrainResult> drained = client.Drain();
  ASSERT_TRUE(drained.ok());
  (*server)->Drain();
  EXPECT_TRUE(drained->provisionals.empty());
  EXPECT_TRUE(drained->confirmed.empty());
  EXPECT_TRUE(drained->retracted.empty());
}

}  // namespace
}  // namespace pulse
