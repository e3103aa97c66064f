#ifndef PULSE_CORE_PRECISION_H_
#define PULSE_CORE_PRECISION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/runtime.h"
#include "model/segment.h"
#include "util/result.h"

namespace pulse {

/// One rung of the precision ladder above the exact tier 0. Widening to
/// this tier multiplies the segmentation error budget by `error_scale`
/// (longer pieces, fewer solver pushes — the paper's precision economy,
/// Section IV, turned into a load lever) and tags every answer produced
/// under it with `output_bound`: the absolute per-attribute deviation
/// from the exact answer within which a provisional is later confirmed.
struct PrecisionTier {
  double error_scale = 4.0;
  double output_bound = 1.0;
};

/// A conservative default ladder: each step quadruples the error budget
/// and the advertised bound. Callers with workload knowledge should size
/// output_bound to their data's scale (docs/PRECISION.md).
std::vector<PrecisionTier> DefaultPrecisionLadder();

struct AdaptivePrecisionOptions {
  /// Widened tiers; SetTier(k) selects ladder[k-1]. Must be non-empty.
  std::vector<PrecisionTier> ladder = DefaultPrecisionLadder();
  /// Probe points per provisional at settlement (evenly spaced inside
  /// the provisional's range; every covered probe must be within the
  /// tier's output_bound for a confirm).
  size_t probe_points = 5;
  /// Deferred-input backstop: raw items buffered for exact replay while
  /// widened. Reaching the cap forces an immediate reconcile (the
  /// precision lever absorbs bursts; sustained overload beyond this is
  /// the load-shed controller's job — docs/PRECISION.md).
  size_t max_deferred = 1u << 20;
};

/// Why a provisional was retracted.
enum class RetractReason : uint8_t {
  /// A probe deviated from the exact answer by more than the bound.
  kDeviation = 0,
  /// No exact output ever covered the provisional's range — the coarse
  /// model produced an answer the exact computation never did.
  kSpurious = 1,
};

const char* RetractReasonToString(RetractReason reason);

/// An answer emitted under a widened budget, pending settlement.
struct ProvisionalRecord {
  /// Runtime-unique lineage id (> 0); the later confirm/retract verdict
  /// carries the same id.
  uint64_t lineage = 0;
  /// The tier's output_bound at emission time.
  double bound = 0.0;
  Segment segment;
};

/// The settlement of one provisional lineage.
struct VerdictRecord {
  uint64_t lineage = 0;
  bool confirmed = false;
  /// Meaningful when !confirmed.
  RetractReason reason = RetractReason::kDeviation;
  /// Largest probed |provisional - exact| (0 when nothing was probed).
  double max_deviation = 0.0;
};

/// Conservation accounting (docs/PRECISION.md): at any quiescent point
///   provisional == confirmed + retracted + open()
/// and open() == 0 after Finish().
struct PrecisionStats {
  uint64_t provisional = 0;
  uint64_t confirmed = 0;
  uint64_t retracted = 0;
  uint64_t widen_events = 0;
  uint64_t tighten_events = 0;
  /// Raw items buffered for exact replay / already replayed.
  uint64_t deferred_items = 0;
  uint64_t replayed_items = 0;
  /// Reconciles forced by the max_deferred backstop.
  uint64_t forced_reconciles = 0;

  uint64_t open() const { return provisional - confirmed - retracted; }
};

/// A HistoricalRuntime wrapper that makes the error budget dynamic
/// without ever changing the settled answer stream.
///
/// Tier 0 is a passthrough: input goes straight to the wrapped exact
/// runtime and its outputs are settled immediately. At a widened tier k,
/// raw input is *deferred* (buffered unprocessed, the cheapest possible
/// admission) while an episodic coarse runtime — same query, the
/// segmentation error budget multiplied by ladder[k-1].error_scale —
/// processes it live; every coarse output becomes a ProvisionalRecord
/// tagged with a fresh lineage id and the tier's bound. Tightening back
/// to tier 0 (or Finish) reconciles: the deferred input replays through
/// the exact runtime in arrival order, the exact outputs are settled,
/// and each open provisional is probed against them and confirmed or
/// retracted.
///
/// Determinism contract: the exact runtime receives exactly the same
/// ProcessTuple/ProcessSegment/Finish call sequence as a static-precision
/// run of the same feed — deferral changes *when* the calls happen, never
/// their order or content — so TakeSettledOutputs() over a whole run is
/// byte-identical to the static run (the differential oracle's
/// precision variant pins this per seed, modulo segment ids).
///
/// Single-threaded like the runtimes it wraps; the serving session's
/// worker thread is the one caller.
class AdaptiveRuntime {
 public:
  /// `exact` is the static-precision configuration (the fields metrics /
  /// collect_outputs are overridden: the adaptive runtime owns a
  /// registry shared by the exact and coarse runtimes so
  /// span/runtime/push_segment reflects whichever side is live, and
  /// settlement needs collected outputs).
  static Result<std::unique_ptr<AdaptiveRuntime>> Make(
      const QuerySpec& spec, HistoricalRuntime::Options exact,
      AdaptivePrecisionOptions precision = {});

  Status ProcessTuple(const std::string& stream, const Tuple& tuple);
  Status ProcessTuples(const std::string& stream, const Tuple* tuples,
                       size_t n);
  Status ProcessSegment(const std::string& stream, Segment segment);

  /// Moves to tier `tier` (0 = exact, k selects ladder[k-1]). Widening
  /// and tier-to-tier moves only switch the coarse episode; tightening
  /// to 0 reconciles (replays the deferred input and settles open
  /// provisionals). Out-of-range tiers clamp to the ladder top.
  Status SetTier(size_t tier);
  size_t tier() const { return tier_; }

  /// End of input: reconciles if widened, finishes the exact runtime,
  /// settles every remaining provisional (uncovered ones retract as
  /// spurious). After this, stats().open() == 0.
  Status Finish();

  /// The authoritative answer stream: exact-runtime outputs in exact
  /// output order. Byte-identical (modulo ids) to a static run.
  std::vector<Segment> TakeSettledOutputs();
  /// Provisional answers emitted since the last call, in emission order.
  std::vector<ProvisionalRecord> TakeProvisionals();
  /// Confirm/retract verdicts since the last call, in settlement order.
  std::vector<VerdictRecord> TakeVerdicts();

  const PrecisionStats& stats() const { return stats_; }
  /// Settled segments currently retained for provisional probing. Stays
  /// 0 while nothing is open — the tier-0 steady state must not grow a
  /// copy of the output stream (test hook; see HarvestSettled).
  size_t probe_timeline_segments() const;
  const AdaptivePrecisionOptions& precision_options() const {
    return precision_;
  }
  /// Registry shared by the exact and coarse runtimes (owned).
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }

 private:
  AdaptiveRuntime() = default;

  struct DeferredItem {
    std::string stream;
    bool is_segment = false;
    Tuple tuple;
    Segment segment;
  };

  Status Defer(const std::string& stream, const Tuple* tuple,
               const Segment* segment);
  /// Replays every buffered item through the exact runtime in arrival
  /// order and empties the buffer. No-op when nothing is deferred.
  Status DrainDeferred();
  Status StartEpisode(size_t tier);
  /// Finish the live coarse episode, harvesting its tail as provisionals.
  Status CloseEpisode();
  /// Replays deferred input through the exact runtime and settles what
  /// the settled coverage allows.
  Status Reconcile();
  void HarvestProvisionals();
  void HarvestSettled();
  /// Probes open provisionals against the settled timelines. With
  /// `final_pass`, uncovered provisionals retract as spurious instead of
  /// staying open.
  void SettleOpen(bool final_pass);
  /// Tier-0 housekeeping after a harvest: settles what new coverage
  /// allows and prunes the probe timelines, so provisionals left open by
  /// a reconcile (exact tail pending) resolve as soon as their range is
  /// covered instead of waiting for the next tier change.
  void SettlePending();
  /// Drops settled-timeline segments no open provisional can probe.
  void PruneTimelines();

  QuerySpec spec_;
  AdaptivePrecisionOptions precision_;
  /// Static configuration, kept as the template coarse episodes derive
  /// from (only segmentation.max_error differs).
  HistoricalRuntime::Options exact_template_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<HistoricalRuntime> exact_;
  /// Live only while tier_ > 0.
  std::unique_ptr<HistoricalRuntime> coarse_;
  size_t tier_ = 0;
  uint64_t next_lineage_ = 1;
  bool finished_ = false;

  std::vector<DeferredItem> deferred_;
  /// Lineage -> unsettled provisional (settlement probes read these).
  std::map<uint64_t, ProvisionalRecord> open_;
  /// Per-key settled outputs, in settled order, for probe lookups.
  std::map<Key, std::vector<Segment>> timelines_;

  std::vector<Segment> settled_out_;
  std::vector<ProvisionalRecord> provisional_out_;
  std::vector<VerdictRecord> verdict_out_;
  PrecisionStats stats_;
};

}  // namespace pulse

#endif  // PULSE_CORE_PRECISION_H_
