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
    AdmissionOptions options, std::vector<const obs::Histogram*> latency)
    : options_(options), sampler_(std::move(latency)) {
  if (options_.queue_low_watermark > options_.queue_high_watermark) {
    options_.queue_low_watermark = options_.queue_high_watermark;
  }
  if (options_.latency_low_ns > options_.latency_high_ns) {
    options_.latency_low_ns = options_.latency_high_ns;
  }
  if (options_.sample_every == 0) options_.sample_every = 1;
}

void AdmissionController::ResampleLatency() {
  const double p99 = sampler_.Sample();
  if (latency_overloaded_) {
    if (p99 < static_cast<double>(options_.latency_low_ns)) {
      latency_overloaded_ = false;
    }
  } else if (p99 > static_cast<double>(options_.latency_high_ns)) {
    latency_overloaded_ = true;
  }
}

AdmitDecision AdmissionController::Admit(size_t total_depth,
                                         size_t total_capacity) {
  if (!options_.enabled) return AdmitDecision::kAdmit;

  const double fraction =
      total_capacity == 0
          ? 0.0
          : static_cast<double>(total_depth) /
                static_cast<double>(total_capacity);
  if (queue_overloaded_) {
    if (fraction < options_.queue_low_watermark) queue_overloaded_ = false;
  } else if (fraction > options_.queue_high_watermark) {
    queue_overloaded_ = true;
  }

  if (++admits_since_sample_ >= options_.sample_every) {
    admits_since_sample_ = 0;
    ResampleLatency();
  }

  if (queue_overloaded_) return AdmitDecision::kShedQueue;
  if (latency_overloaded_) return AdmitDecision::kShedLatency;
  return AdmitDecision::kAdmit;
}

PrecisionController::PrecisionController(PrecisionOptions options,
                                         const obs::Histogram* latency)
    : options_(options), sampler_({latency}) {
  if (options_.tighten_queue_watermark > options_.widen_queue_watermark) {
    options_.tighten_queue_watermark = options_.widen_queue_watermark;
  }
  if (options_.tighten_latency_ns > options_.widen_latency_ns) {
    options_.tighten_latency_ns = options_.widen_latency_ns;
  }
  if (options_.sample_every == 0) options_.sample_every = 1;
  if (options_.num_tiers == 0) options_.num_tiers = 1;
  if (options_.forced_tier >= 0) {
    tier_ = std::min(static_cast<size_t>(options_.forced_tier),
                     options_.num_tiers);
  }
}

size_t PrecisionController::Update(size_t total_depth,
                                   size_t total_capacity) {
  if (!options_.enabled) return 0;
  if (options_.forced_tier >= 0) return tier_;

  ++admissions_;
  if (++admits_since_sample_ >= options_.sample_every) {
    admits_since_sample_ = 0;
    (void)sampler_.Sample();
  }
  // Dwell: at most one tier move per cooldown window, so a step load
  // ramps monotonically instead of oscillating around a watermark.
  if (admissions_ - last_move_admission_ < options_.cooldown) return tier_;

  const double fraction =
      total_capacity == 0
          ? 0.0
          : static_cast<double>(total_depth) /
                static_cast<double>(total_capacity);
  const double p99 = sampler_.p99_ns();

  const bool pressure =
      fraction > options_.widen_queue_watermark ||
      p99 > static_cast<double>(options_.widen_latency_ns);
  const bool relief =
      fraction < options_.tighten_queue_watermark &&
      p99 < static_cast<double>(options_.tighten_latency_ns);

  if (pressure && tier_ < options_.num_tiers) {
    ++tier_;
    ++widen_events_;
    last_move_admission_ = admissions_;
  } else if (relief && tier_ > 0) {
    --tier_;
    ++tighten_events_;
    last_move_admission_ = admissions_;
  }
  return tier_;
}

}  // namespace serve
}  // namespace pulse
