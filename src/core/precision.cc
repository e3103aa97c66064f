#include "core/precision.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace pulse {

std::vector<PrecisionTier> DefaultPrecisionLadder() {
  return {PrecisionTier{4.0, 1.0}, PrecisionTier{16.0, 4.0}};
}

const char* RetractReasonToString(RetractReason reason) {
  switch (reason) {
    case RetractReason::kDeviation:
      return "Deviation";
    case RetractReason::kSpurious:
      return "Spurious";
  }
  return "Unknown";
}

Result<std::unique_ptr<AdaptiveRuntime>> AdaptiveRuntime::Make(
    const QuerySpec& spec, HistoricalRuntime::Options exact,
    AdaptivePrecisionOptions precision) {
  if (precision.ladder.empty()) {
    return Status::InvalidArgument("precision ladder must be non-empty");
  }
  for (const PrecisionTier& tier : precision.ladder) {
    if (tier.error_scale < 1.0) {
      return Status::InvalidArgument(
          "precision tier error_scale must be >= 1 (widening only)");
    }
    if (tier.output_bound <= 0.0) {
      return Status::InvalidArgument(
          "precision tier output_bound must be > 0");
    }
  }
  if (precision.probe_points == 0) precision.probe_points = 1;
  if (precision.max_deferred == 0) precision.max_deferred = 1;

  auto runtime = std::unique_ptr<AdaptiveRuntime>(new AdaptiveRuntime());
  runtime->spec_ = spec;
  runtime->precision_ = std::move(precision);
  runtime->metrics_ = std::make_unique<obs::MetricsRegistry>();

  // Settlement compares against collected outputs, so collection is
  // mandatory.
  exact.collect_outputs = true;
  exact.metrics = runtime->metrics_.get();
  PULSE_ASSIGN_OR_RETURN(HistoricalRuntime rt,
                         HistoricalRuntime::Make(spec, exact));
  runtime->exact_ = std::make_unique<HistoricalRuntime>(std::move(rt));
  // Keep the static configuration around as the coarse-episode template.
  runtime->exact_template_ = std::move(exact);
  return runtime;
}

Status AdaptiveRuntime::StartEpisode(size_t tier) {
  const PrecisionTier& rung = precision_.ladder[tier - 1];
  HistoricalRuntime::Options coarse = exact_template_;
  coarse.segmentation.max_error *= rung.error_scale;
  coarse.collect_outputs = true;
  // Both runtimes report through the shared registry, so the
  // span/runtime/push_segment histogram the precision controller reads
  // tracks whichever side is currently live.
  coarse.metrics = metrics_.get();
  PULSE_ASSIGN_OR_RETURN(HistoricalRuntime rt,
                         HistoricalRuntime::Make(spec_, coarse));
  coarse_ = std::make_unique<HistoricalRuntime>(std::move(rt));
  tier_ = tier;
  return Status::OK();
}

void AdaptiveRuntime::HarvestProvisionals() {
  if (coarse_ == nullptr) return;
  const double bound = precision_.ladder[tier_ - 1].output_bound;
  for (Segment& segment : coarse_->TakeOutputSegments()) {
    ProvisionalRecord record;
    record.lineage = next_lineage_++;
    record.bound = bound;
    record.segment = std::move(segment);
    open_.emplace(record.lineage, record);
    provisional_out_.push_back(std::move(record));
    ++stats_.provisional;
  }
}

Status AdaptiveRuntime::CloseEpisode() {
  if (coarse_ == nullptr) return Status::OK();
  PULSE_RETURN_IF_ERROR(coarse_->Finish());
  HarvestProvisionals();
  coarse_.reset();
  return Status::OK();
}

void AdaptiveRuntime::HarvestSettled() {
  // Timelines exist only to answer probes from open provisionals, and a
  // provisional's range never predates its coarse episode — so segments
  // settled while nothing is open can never be probed. Retaining them
  // anyway would copy the entire output stream for the session lifetime
  // in the tier-0 steady state.
  const bool retain = !open_.empty();
  for (Segment& segment : exact_->TakeOutputSegments()) {
    if (retain) timelines_[segment.key].push_back(segment);
    settled_out_.push_back(std::move(segment));
  }
}

size_t AdaptiveRuntime::probe_timeline_segments() const {
  size_t total = 0;
  for (const auto& [key, timeline] : timelines_) total += timeline.size();
  return total;
}

Status AdaptiveRuntime::DrainDeferred() {
  for (DeferredItem& item : deferred_) {
    if (item.is_segment) {
      PULSE_RETURN_IF_ERROR(
          exact_->ProcessSegment(item.stream, std::move(item.segment)));
    } else {
      PULSE_RETURN_IF_ERROR(exact_->ProcessTuple(item.stream, item.tuple));
    }
    ++stats_.replayed_items;
  }
  deferred_.clear();
  return Status::OK();
}

Status AdaptiveRuntime::Reconcile() {
  PULSE_RETURN_IF_ERROR(CloseEpisode());
  PULSE_RETURN_IF_ERROR(DrainDeferred());
  HarvestSettled();
  SettleOpen(/*final_pass=*/false);
  PruneTimelines();
  tier_ = 0;
  ++stats_.tighten_events;
  return Status::OK();
}

namespace {

// The settled segment answering for time `t`: the latest one in settled
// order whose range covers t (matching the stream update semantics —
// a successor overlapping its predecessors supersedes them).
const Segment* Covering(const std::vector<Segment>& timeline, double t) {
  for (auto it = timeline.rbegin(); it != timeline.rend(); ++it) {
    if (it->range.Contains(t)) return &*it;
  }
  return nullptr;
}

}  // namespace

void AdaptiveRuntime::SettleOpen(bool final_pass) {
  for (auto it = open_.begin(); it != open_.end();) {
    const ProvisionalRecord& record = it->second;
    const auto timeline_it = timelines_.find(record.segment.key);
    const std::vector<Segment>* timeline =
        timeline_it == timelines_.end() ? nullptr : &timeline_it->second;

    size_t covered = 0;
    double max_deviation = 0.0;
    bool within = true;
    const double lo = record.segment.range.lo;
    const double hi = record.segment.range.hi;
    const size_t probes = precision_.probe_points;
    for (size_t p = 0; p < probes && timeline != nullptr; ++p) {
      const double t =
          lo + (hi - lo) * (static_cast<double>(p) + 0.5) /
                   static_cast<double>(probes);
      const Segment* exact = Covering(*timeline, t);
      if (exact == nullptr) continue;
      ++covered;
      for (const auto& [name, poly] : record.segment.attributes) {
        const auto attr = exact->attributes.find(name);
        if (attr == exact->attributes.end()) continue;
        const double deviation =
            std::fabs(poly.Evaluate(t) - attr->second.Evaluate(t));
        max_deviation = std::max(max_deviation, deviation);
        if (deviation > record.bound) within = false;
      }
    }

    VerdictRecord verdict;
    verdict.lineage = record.lineage;
    verdict.max_deviation = max_deviation;
    if (covered == 0) {
      if (!final_pass) {
        // The exact computation has not reached this range yet (e.g. a
        // window tail still pending) — stay open until Finish.
        ++it;
        continue;
      }
      verdict.confirmed = false;
      verdict.reason = RetractReason::kSpurious;
    } else if (within) {
      if (covered < probes && !final_pass) {
        // Only part of the range is answerable yet — the same pending
        // window tail the covered == 0 branch waits on. The uncovered
        // remainder could still deviate, and a confirm cannot be
        // retracted, so stay open until coverage completes or Finish.
        ++it;
        continue;
      }
      verdict.confirmed = true;
    } else {
      verdict.confirmed = false;
      verdict.reason = RetractReason::kDeviation;
    }
    verdict.confirmed ? ++stats_.confirmed : ++stats_.retracted;
    verdict_out_.push_back(verdict);
    it = open_.erase(it);
  }
}

void AdaptiveRuntime::SettlePending() {
  if (open_.empty()) return;
  SettleOpen(/*final_pass=*/false);
  PruneTimelines();
}

void AdaptiveRuntime::PruneTimelines() {
  // Probes only ever look inside an open provisional's range, so any
  // settled segment ending before the earliest open lower end is dead
  // weight. With nothing open, the whole probe index can go.
  if (open_.empty()) {
    timelines_.clear();
    return;
  }
  double earliest = open_.begin()->second.segment.range.lo;
  for (const auto& [lineage, record] : open_) {
    earliest = std::min(earliest, record.segment.range.lo);
  }
  for (auto& [key, timeline] : timelines_) {
    auto keep = std::remove_if(timeline.begin(), timeline.end(),
                               [earliest](const Segment& s) {
                                 return s.range.hi < earliest;
                               });
    timeline.erase(keep, timeline.end());
  }
}

Status AdaptiveRuntime::Defer(const std::string& stream, const Tuple* tuple,
                              const Segment* segment) {
  DeferredItem item;
  item.stream = stream;
  if (segment != nullptr) {
    item.is_segment = true;
    item.segment = *segment;
  } else {
    item.tuple = *tuple;
  }
  deferred_.push_back(std::move(item));
  ++stats_.deferred_items;
  if (deferred_.size() >= precision_.max_deferred) {
    // Backstop: the precision lever absorbs bursts, it must not grow
    // memory without bound under sustained overload. Reconcile now and
    // drop to the exact tier; admission-level shedding owns what comes
    // next (docs/PRECISION.md).
    ++stats_.forced_reconciles;
    return Reconcile();
  }
  return Status::OK();
}

Status AdaptiveRuntime::ProcessTuple(const std::string& stream,
                                     const Tuple& tuple) {
  if (tier_ == 0) {
    // Defense in depth: anything still buffered must reach the exact
    // runtime before new input to preserve arrival order.
    PULSE_RETURN_IF_ERROR(DrainDeferred());
    PULSE_RETURN_IF_ERROR(exact_->ProcessTuple(stream, tuple));
    HarvestSettled();
    SettlePending();
    return Status::OK();
  }
  PULSE_RETURN_IF_ERROR(coarse_->ProcessTuple(stream, tuple));
  HarvestProvisionals();
  return Defer(stream, &tuple, nullptr);
}

Status AdaptiveRuntime::ProcessTuples(const std::string& stream,
                                      const Tuple* tuples, size_t n) {
  if (tier_ == 0) {
    PULSE_RETURN_IF_ERROR(DrainDeferred());
    PULSE_RETURN_IF_ERROR(exact_->ProcessTuples(stream, tuples, n));
    HarvestSettled();
    SettlePending();
    return Status::OK();
  }
  PULSE_RETURN_IF_ERROR(coarse_->ProcessTuples(stream, tuples, n));
  HarvestProvisionals();
  for (size_t i = 0; i < n; ++i) {
    PULSE_RETURN_IF_ERROR(Defer(stream, &tuples[i], nullptr));
    if (tier_ == 0) {
      // The max_deferred backstop reconciled mid-batch (tuples 0..i
      // replayed, episode closed). The batch tail must take the exact
      // path now: deferring it at tier 0 would strand it behind later
      // direct input, losing both arrival order and — since nothing at
      // tier 0 triggers a reconcile — the tuples themselves.
      if (i + 1 < n) {
        PULSE_RETURN_IF_ERROR(
            exact_->ProcessTuples(stream, tuples + i + 1, n - i - 1));
      }
      HarvestSettled();
      SettlePending();
      return Status::OK();
    }
  }
  return Status::OK();
}

Status AdaptiveRuntime::ProcessSegment(const std::string& stream,
                                       Segment segment) {
  if (tier_ == 0) {
    PULSE_RETURN_IF_ERROR(DrainDeferred());
    PULSE_RETURN_IF_ERROR(
        exact_->ProcessSegment(stream, std::move(segment)));
    HarvestSettled();
    SettlePending();
    return Status::OK();
  }
  // The coarse side cannot re-segment an already-fitted model, so a
  // pushed segment costs the same live work at every tier; the gain on
  // this path is deferral alone. (Tuple input is where the widened
  // budget pays: longer pieces, fewer pushes.)
  PULSE_RETURN_IF_ERROR(coarse_->ProcessSegment(stream, segment));
  HarvestProvisionals();
  return Defer(stream, nullptr, &segment);
}

Status AdaptiveRuntime::SetTier(size_t tier) {
  if (finished_) {
    return Status::FailedPrecondition("SetTier after Finish");
  }
  tier = std::min(tier, precision_.ladder.size());
  if (tier == tier_) return Status::OK();
  if (tier == 0) return Reconcile();
  // Tier-to-tier moves (including partial tightening) switch episodes
  // without reconciling: reconciliation replays deferred work through
  // the exact runtime, which is precisely the cost the widened tier is
  // deferring — doing it while still under pressure would defeat the
  // lever. The new episode's coarse runtime starts fresh.
  PULSE_RETURN_IF_ERROR(CloseEpisode());
  if (tier_ == 0) ++stats_.widen_events;
  return StartEpisode(tier);
}

Status AdaptiveRuntime::Finish() {
  if (finished_) return Status::OK();
  if (tier_ != 0) {
    PULSE_RETURN_IF_ERROR(Reconcile());
  } else {
    PULSE_RETURN_IF_ERROR(DrainDeferred());
  }
  PULSE_RETURN_IF_ERROR(exact_->Finish());
  HarvestSettled();
  SettleOpen(/*final_pass=*/true);
  timelines_.clear();
  finished_ = true;
  return Status::OK();
}

std::vector<Segment> AdaptiveRuntime::TakeSettledOutputs() {
  return std::exchange(settled_out_, {});
}

std::vector<ProvisionalRecord> AdaptiveRuntime::TakeProvisionals() {
  return std::exchange(provisional_out_, {});
}

std::vector<VerdictRecord> AdaptiveRuntime::TakeVerdicts() {
  return std::exchange(verdict_out_, {});
}

}  // namespace pulse
