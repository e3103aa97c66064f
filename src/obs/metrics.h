#ifndef PULSE_OBS_METRICS_H_
#define PULSE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pulse {
namespace obs {

// Compile-out switch for the whole observability layer: with
// -DPULSE_NO_METRICS every Counter/Gauge/Histogram mutation and every
// PULSE_SPAN becomes an inline no-op (reads return zero, snapshots are
// empty). scripts/check.sh builds this configuration to measure the
// instrumentation overhead of the default build (metrics-overhead gate,
// budget 3%).
#if defined(PULSE_NO_METRICS)
inline constexpr bool kMetricsEnabled = false;
#else
inline constexpr bool kMetricsEnabled = true;
#endif

/// Monotonic counter. The hot path is one relaxed fetch_add — safe and
/// truthful when exporters read it from other threads: counters order
/// nothing, they only have to count. Store() exists for
/// MetricsRegistry::Rollup, which writes sums assembled from other
/// registries into a scratch registry at read time.
class Counter {
 public:
  void Add(uint64_t delta) {
    if constexpr (kMetricsEnabled) {
      v_.fetch_add(delta, std::memory_order_relaxed);
    } else {
      (void)delta;
    }
  }
  void Increment() { Add(1); }
  void Store(uint64_t value) {
    if constexpr (kMetricsEnabled) {
      v_.store(value, std::memory_order_relaxed);
    } else {
      (void)value;
    }
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Level metric. Set() is last-write-wins; Add() moves the level by a
/// delta, so several contributors can share one gauge as a sum (see
/// GaugeLevel). Stores double bits in one atomic so every operation is
/// lock-free and TSan-clean.
class Gauge {
 public:
  void Set(double value) {
    if constexpr (kMetricsEnabled) {
      bits_.store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
    } else {
      (void)value;
    }
  }
  void Add(double delta) {
    if constexpr (kMetricsEnabled) {
      uint64_t seen = bits_.load(std::memory_order_relaxed);
      while (!bits_.compare_exchange_weak(
          seen, std::bit_cast<uint64_t>(std::bit_cast<double>(seen) + delta),
          std::memory_order_relaxed)) {
      }
    } else {
      (void)delta;
    }
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<uint64_t> bits_{0};
};

/// One contributor's level in a gauge shared as a sum: Set() moves the
/// gauge by the difference to this contributor's previous level, and
/// Retarget() or destruction withdraws the level. A gauge that only
/// GaugeLevels touch therefore reads the sum of its live contributors'
/// current levels. Integral levels keep the sum exact below 2^53.
class GaugeLevel {
 public:
  explicit GaugeLevel(Gauge* gauge) : gauge_(gauge) {}
  ~GaugeLevel() { gauge_->Add(-static_cast<double>(level_)); }
  GaugeLevel(const GaugeLevel&) = delete;
  GaugeLevel& operator=(const GaugeLevel&) = delete;

  void Set(uint64_t level) {
    if (level == level_) return;
    gauge_->Add(static_cast<double>(level) - static_cast<double>(level_));
    level_ = level;
  }
  /// Moves this contributor's level from its gauge onto `gauge`.
  void Retarget(Gauge* gauge) {
    gauge_->Add(-static_cast<double>(level_));
    gauge_ = gauge;
    gauge_->Add(static_cast<double>(level_));
  }

 private:
  Gauge* gauge_;
  uint64_t level_ = 0;
};

/// Fixed-bucket log-linear latency histogram (HdrHistogram-style): 4
/// sub-buckets per power of two, so any recorded value lands in a bucket
/// whose width is at most 25% of its lower bound. Values are intended to
/// be nanoseconds but the structure is unit-agnostic. Recording is
/// lock-free (relaxed adds); percentile extraction walks a snapshot of
/// the bucket array.
class Histogram {
 public:
  /// 4 exact buckets for 0..3, then 4 sub-buckets per octave up to the
  /// full uint64 range.
  static constexpr size_t kNumBuckets = 4 + 62 * 4;

  void Record(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// Percentile estimate in [0, 100]: locates the bucket holding the
  /// p-quantile observation and interpolates linearly inside it. The
  /// estimate is within one sub-bucket (<= 25% relative error) of the
  /// true order statistic. Returns 0 when empty.
  double Percentile(double p) const;

  /// Bucket index for a value (exposed for the brute-force oracle in
  /// tests).
  static size_t BucketOf(uint64_t value);
  /// [lo, hi) value range covered by bucket `b`.
  static std::pair<uint64_t, uint64_t> BucketBounds(size_t b);

  /// Consistent-enough copy of the bucket array for offline percentile
  /// math (snapshot exporters).
  std::array<uint64_t, kNumBuckets> BucketCounts() const;

  /// Overwrites this histogram with an externally assembled state
  /// (the rollup target: MetricsRegistry::Rollup SetTo()s the bucket-wise
  /// sum of the source histograms into a scratch registry when a
  /// snapshot is taken).
  void SetTo(const std::array<uint64_t, kNumBuckets>& buckets,
             uint64_t count, uint64_t sum, uint64_t max);

 private:
  friend double PercentileFromBuckets(
      const std::array<uint64_t, kNumBuckets>& buckets, uint64_t count,
      double p);

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Percentile math shared by Histogram::Percentile and snapshot
/// extraction.
double PercentileFromBuckets(
    const std::array<uint64_t, Histogram::kNumBuckets>& buckets,
    uint64_t count, double p);

/// Point-in-time copy of a registry. Plain data: safe to keep after the
/// registry is gone.
struct HistogramStats {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Copies every series of `other` in under `prefix + name`,
  /// overwriting same-named entries.
  void Merge(const MetricsSnapshot& other, const std::string& prefix = "");
};

/// Process- or component-scoped metric namespace: named counters,
/// gauges, and latency histograms with stable addresses. Handle lookup
/// (Get*) takes a mutex and is meant for wiring time; the returned
/// pointers are valid for the registry's lifetime and all operations on
/// them are lock-free.
///
/// Both query realizations report through a registry with the same
/// metric names (docs/OBSERVABILITY.md documents the naming scheme), so
/// discrete and Pulse runs of one query are directly comparable — the
/// differential harness asserts behavioral invariants on these names.
///
/// Every series is owned by the registry: components that bind the same
/// name (runtimes sharing a registry, say) add into one series, and the
/// series outlives them. Lifetime: a registry must outlive every
/// component holding handles into it.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Element-wise sum of `sources` written into `dst` under the plain
  /// (unprefixed) metric names: counters sum into counters, gauges
  /// into gauges, histograms sum
  /// bucket-wise (max of maxes). ShardPool::Snapshot builds the merged
  /// cross-shard series this way, into a scratch `dst`; sources must not
  /// contain `dst`.
  static void Rollup(const std::vector<const MetricsRegistry*>& sources,
                     MetricsRegistry* dst);

  /// Number of registered metrics; for tests.
  size_t size() const;

 private:
  mutable std::mutex mu_;
  // std::map: node addresses are stable across insertions, so handles
  // returned by Get* never move.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Process-wide default registry (spans with no scoped registry record
/// here).
MetricsRegistry* DefaultRegistry();

}  // namespace obs
}  // namespace pulse

#endif  // PULSE_OBS_METRICS_H_
