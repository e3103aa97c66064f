#include "obs/metrics.h"

#include <algorithm>

namespace pulse {
namespace obs {

namespace {

// floor(log2(v)) for v >= 1.
inline int Log2Floor(uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
  return 63 - __builtin_clzll(v);
#else
  int r = 0;
  while (v >>= 1) ++r;
  return r;
#endif
}

}  // namespace

// ---------------------------------------------------------------------
// Histogram

size_t Histogram::BucketOf(uint64_t value) {
  if (value < 4) return static_cast<size_t>(value);
  const int octave = Log2Floor(value);           // in [2, 63]
  const uint64_t sub = (value >> (octave - 2)) & 3;
  return static_cast<size_t>((octave - 1) * 4 + sub);
}

std::pair<uint64_t, uint64_t> Histogram::BucketBounds(size_t b) {
  if (b < 4) return {b, b + 1};
  const int octave = static_cast<int>(b / 4 + 1);
  const uint64_t sub = b % 4;
  const uint64_t lo = (4 + sub) << (octave - 2);
  if (b + 1 == kNumBuckets) {
    // (4+3+1) << 61 would wrap; the top bucket is open-ended.
    return {lo, UINT64_MAX};
  }
  return {lo, lo + (uint64_t{1} << (octave - 2))};
}

void Histogram::Record(uint64_t value) {
  if constexpr (!kMetricsEnabled) {
    (void)value;
    return;
  }
  buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void Histogram::SetTo(const std::array<uint64_t, kNumBuckets>& buckets,
                      uint64_t count, uint64_t sum, uint64_t max) {
  if constexpr (!kMetricsEnabled) {
    (void)buckets;
    (void)count;
    (void)sum;
    (void)max;
    return;
  }
  for (size_t i = 0; i < kNumBuckets; ++i) {
    buckets_[i].store(buckets[i], std::memory_order_relaxed);
  }
  // count last: a concurrent percentile read that sees the new count
  // with some old buckets is no worse than any other racy snapshot.
  sum_.store(sum, std::memory_order_relaxed);
  max_.store(max, std::memory_order_relaxed);
  count_.store(count, std::memory_order_relaxed);
}

std::array<uint64_t, Histogram::kNumBuckets> Histogram::BucketCounts() const {
  std::array<uint64_t, kNumBuckets> out;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double PercentileFromBuckets(
    const std::array<uint64_t, Histogram::kNumBuckets>& buckets,
    uint64_t count, double p) {
  if (count == 0) return 0.0;
  p = std::min(100.0, std::max(0.0, p));
  // Rank of the p-quantile observation, 1-based; p=0 maps to the first.
  const double target = std::max(1.0, p / 100.0 * static_cast<double>(count));
  uint64_t cum = 0;
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    const uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= target) {
      const auto [lo, hi] = Histogram::BucketBounds(b);
      // Interpolate linearly between the bucket bounds by the fraction of
      // the bucket's observations below the target rank.
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(in_bucket);
      return static_cast<double>(lo) +
             frac * (static_cast<double>(hi) - static_cast<double>(lo));
    }
    cum += in_bucket;
  }
  // Rounding pushed the target past the last populated bucket.
  for (size_t b = Histogram::kNumBuckets; b-- > 0;) {
    if (buckets[b] != 0) return static_cast<double>(Histogram::BucketBounds(b).second);
  }
  return 0.0;
}

double Histogram::Percentile(double p) const {
  const double est = PercentileFromBuckets(BucketCounts(), count(), p);
  // The true order statistic never exceeds the maximum recorded value, so
  // clamp the bucket upper-bound interpolation to it.
  const uint64_t mx = max();
  return std::min(est, static_cast<double>(mx));
}

// ---------------------------------------------------------------------
// MetricsSnapshot

void MetricsSnapshot::Merge(const MetricsSnapshot& other,
                            const std::string& prefix) {
  for (const auto& [name, v] : other.counters) counters[prefix + name] = v;
  for (const auto& [name, v] : other.gauges) gauges[prefix + name] = v;
  for (const auto& [name, v] : other.histograms) {
    histograms[prefix + name] = v;
  }
}

// ---------------------------------------------------------------------
// MetricsRegistry

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &counters_[name];
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &gauges_[name];
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &histograms_[name];
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  if constexpr (!kMetricsEnabled) return snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g.value();
  for (const auto& [name, h] : histograms_) {
    HistogramStats s;
    s.count = h.count();
    if (s.count > 0) {
      const auto buckets = h.BucketCounts();
      s.sum = h.sum();
      s.max = h.max();
      const double mx = static_cast<double>(s.max);
      s.p50 = std::min(PercentileFromBuckets(buckets, s.count, 50.0), mx);
      s.p95 = std::min(PercentileFromBuckets(buckets, s.count, 95.0), mx);
      s.p99 = std::min(PercentileFromBuckets(buckets, s.count, 99.0), mx);
    }
    snap.histograms[name] = s;
  }
  return snap;
}

namespace {

/// Raw histogram state lifted out of a registry while its mutex is
/// held, applied to the destination after release (two registries'
/// mutexes are never held at once, so Rollup cannot deadlock against
/// Get*).
struct RawHistogram {
  std::array<uint64_t, Histogram::kNumBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
};

}  // namespace

void MetricsRegistry::Rollup(
    const std::vector<const MetricsRegistry*>& sources,
    MetricsRegistry* dst) {
  if constexpr (!kMetricsEnabled) return;
  if (dst == nullptr) return;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, RawHistogram> histograms;
  for (const MetricsRegistry* src : sources) {
    if (src == nullptr || src == dst) continue;
    std::lock_guard<std::mutex> lock(src->mu_);
    for (const auto& [name, c] : src->counters_) {
      counters[name] += c.value();
    }
    for (const auto& [name, g] : src->gauges_) {
      gauges[name] += g.value();
    }
    for (const auto& [name, h] : src->histograms_) {
      RawHistogram& acc = histograms[name];
      const auto buckets = h.BucketCounts();
      for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
        acc.buckets[i] += buckets[i];
      }
      acc.count += h.count();
      acc.sum += h.sum();
      acc.max = std::max(acc.max, h.max());
    }
  }
  for (const auto& [name, v] : counters) {
    dst->GetCounter(name)->Store(v);
  }
  for (const auto& [name, v] : gauges) {
    dst->GetGauge(name)->Set(v);
  }
  for (const auto& [name, raw] : histograms) {
    dst->GetHistogram(name)->SetTo(raw.buckets, raw.count, raw.sum,
                                   raw.max);
  }
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

MetricsRegistry* DefaultRegistry() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

}  // namespace obs
}  // namespace pulse
