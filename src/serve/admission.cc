#include "serve/admission.h"

#include <algorithm>
#include <utility>

namespace pulse {
namespace serve {

IntervalLatencySampler::IntervalLatencySampler(
    std::vector<const obs::Histogram*> histograms)
    : histograms_(std::move(histograms)) {
  histograms_.erase(
      std::remove(histograms_.begin(), histograms_.end(), nullptr),
      histograms_.end());
}

double IntervalLatencySampler::Sample() {
  if (histograms_.empty()) return 0.0;
  std::array<uint64_t, obs::Histogram::kNumBuckets> buckets{};
  uint64_t count = 0;
  for (const obs::Histogram* histogram : histograms_) {
    const auto counts = histogram->BucketCounts();
    for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += counts[i];
    count += histogram->count();
  }
  if (count <= last_count_) {
    // No new observations since the last sample: the latency signal is
    // stale, not elevated.
    p99_ns_ = 0.0;
    last_buckets_ = buckets;
    last_count_ = count;
    return p99_ns_;
  }
  std::array<uint64_t, obs::Histogram::kNumBuckets> delta{};
  for (size_t i = 0; i < delta.size(); ++i) {
    delta[i] = buckets[i] - last_buckets_[i];
  }
  p99_ns_ = obs::PercentileFromBuckets(delta, count - last_count_, 99.0);
  last_buckets_ = buckets;
  last_count_ = count;
  return p99_ns_;
}

AdmissionController::AdmissionController(
    AdmissionOptions admission, PrecisionOptions precision,
    std::vector<const obs::Histogram*> latency)
    : shedding_(admission.enabled),
      adaptive_(precision.enabled && precision.forced_tier < 0),
      num_tiers_(precision.ladder.size()),
      sampler_(std::move(latency)) {
  if (precision.enabled && precision.forced_tier >= 0) {
    tier_ = std::min(static_cast<size_t>(precision.forced_tier), num_tiers_);
  }
}

AdmitOutcome AdmissionController::Admit(size_t total_depth,
                                        size_t total_capacity) {
  if (!shedding_ && !adaptive_) return {AdmitDecision::kAdmit, tier_};

  const double fraction =
      total_capacity == 0
          ? 0.0
          : static_cast<double>(total_depth) /
                static_cast<double>(total_capacity);
  if (shedding_) {
    queue_overloaded_ = queue_overloaded_
                            ? fraction >= kRecoverQueueWatermark
                            : fraction > kShedQueueWatermark;
  }
  // One sampler at one cadence feeds both the shed and the tier
  // decisions.
  if (++frames_since_sample_ >= kLatencySampleEvery) {
    frames_since_sample_ = 0;
    const double p99 = sampler_.Sample();
    if (shedding_) {
      latency_overloaded_ =
          latency_overloaded_ ? p99 >= static_cast<double>(kRecoverLatencyNs)
                              : p99 > static_cast<double>(kShedLatencyNs);
    }
  }

  if (queue_overloaded_) return {AdmitDecision::kShedQueue, tier_};
  if (latency_overloaded_) return {AdmitDecision::kShedLatency, tier_};
  if (adaptive_) UpdateTier(fraction);
  return {AdmitDecision::kAdmit, tier_};
}

void AdmissionController::UpdateTier(double fraction) {
  ++admissions_;
  // Dwell: at most one tier move per kTierDwell admissions, so a step
  // load ramps monotonically instead of oscillating around a watermark.
  if (admissions_ - last_move_admission_ < kTierDwell) return;

  const double p99 = sampler_.p99_ns();
  const bool pressure = fraction > kWidenQueueWatermark ||
                        p99 > static_cast<double>(kWidenLatencyNs);
  const bool relief = fraction < kTightenQueueWatermark &&
                      p99 < static_cast<double>(kTightenLatencyNs);
  if (pressure && tier_ < num_tiers_) {
    ++tier_;
    ++widen_events_;
    last_move_admission_ = admissions_;
  } else if (relief && tier_ > 0) {
    --tier_;
    ++tighten_events_;
    last_move_admission_ = admissions_;
  }
}

}  // namespace serve
}  // namespace pulse
