#ifndef PULSE_SERVE_ADMISSION_H_
#define PULSE_SERVE_ADMISSION_H_

#include <array>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "obs/metrics.h"

namespace pulse {
namespace serve {

/// Interval-p99 view over a set of (possibly shared) latency
/// histograms, read as their bucket-wise sum: each Sample() takes the
/// delta of the summed bucket counts since the previous sample, so
/// recovery shows up immediately instead of being averaged away by the
/// cumulative distribution. When no new observations arrived the signal
/// reads 0 (stale, not elevated) — an idle solver must never pin a
/// controller in its degraded state. Shared by the load-shed admission
/// controller and the precision controller below.
class IntervalLatencySampler {
 public:
  /// Null entries are ignored; none, or an empty list, means no latency
  /// signal. The histograms must outlive the sampler.
  explicit IntervalLatencySampler(
      std::vector<const obs::Histogram*> histograms);

  /// Re-reads the histogram; returns the fresh interval p99 (ns).
  double Sample();
  /// Last sampled interval p99 (ns); 0 before the first sample.
  double p99_ns() const { return p99_ns_; }

 private:
  std::vector<const obs::Histogram*> histograms_;
  std::array<uint64_t, obs::Histogram::kNumBuckets> last_buckets_{};
  uint64_t last_count_ = 0;
  double p99_ns_ = 0.0;
};

/// Load-shedding thresholds. Both signals use watermark hysteresis so
/// the controller does not flap at the boundary: shedding starts above
/// the high mark and stops only below the low mark.
struct AdmissionOptions {
  /// Master switch; disabled means every well-formed item is admitted
  /// subject only to the queue policy (the lossless configuration the
  /// serving differential runs under).
  bool enabled = true;
  /// Queue-depth signal: fraction of the session's total queue capacity.
  double queue_high_watermark = 0.90;
  double queue_low_watermark = 0.50;
  /// Solver-latency signal: interval p99 of the solver's
  /// span/runtime/push_segment histograms (summed over the shards), in
  /// nanoseconds.
  uint64_t latency_high_ns = 50'000'000;  // 50 ms
  uint64_t latency_low_ns = 10'000'000;   // 10 ms
  /// Admissions between latency re-samples (sampling reads 2 KiB of
  /// bucket counters; once per admission would dominate the hot path).
  uint64_t sample_every = 64;
};

enum class AdmitDecision : uint8_t {
  kAdmit = 0,
  /// Shed because queue depth is above the high watermark.
  kShedQueue = 1,
  /// Shed because solver latency p99 is above the high threshold.
  kShedLatency = 2,
};

/// Admission controller for one session. Keyed on the two overload
/// signals the ISSUE names: aggregate ingest-queue depth (memory /
/// queueing-delay pressure) and solver latency (the downstream stage's
/// actual service time, read from the obs histogram the runtime already
/// maintains). Single-threaded: called only from the session reader.
class AdmissionController {
 public:
  /// `latency` may be empty (no latency signal, queue depth only); the
  /// histograms must outlive the controller.
  AdmissionController(AdmissionOptions options,
                      std::vector<const obs::Histogram*> latency);

  /// Decision for one arriving frame given current aggregate depth.
  AdmitDecision Admit(size_t total_depth, size_t total_capacity);

  bool overloaded() const { return queue_overloaded_ || latency_overloaded_; }
  /// Last sampled interval p99 (ns); 0 before the first sample.
  double interval_p99_ns() const { return sampler_.p99_ns(); }

 private:
  void ResampleLatency();

  AdmissionOptions options_;
  IntervalLatencySampler sampler_;
  uint64_t admits_since_sample_ = 0;
  bool queue_overloaded_ = false;
  bool latency_overloaded_ = false;
};

/// Precision-stage thresholds (docs/PRECISION.md). The stage sits
/// *below* the load-shed controller: its watermarks trigger earlier
/// (widen at 0.60 of queue capacity vs shed at 0.90), so under rising
/// pressure the system first trades accuracy for throughput — cheaper
/// segments, fewer solves, provisional answers — and sheds
/// tuples only when the widest budget still cannot keep up.
struct PrecisionOptions {
  /// Master switch. Off = static precision: the session never defers,
  /// never emits provisional/confirm/retract frames, and behaves
  /// exactly as before this stage existed.
  bool enabled = false;
  /// Widened tiers available above the exact tier 0. Must match the
  /// runtime ladder length (serve::Session clamps to it).
  size_t num_tiers = 2;
  /// Queue-depth watermarks (fraction of total queue capacity). Widen
  /// one tier when the fraction exceeds widen_queue_watermark; tighten
  /// one tier when it falls below tighten_queue_watermark. The band
  /// between them is the hysteresis dead zone.
  double widen_queue_watermark = 0.60;
  double tighten_queue_watermark = 0.25;
  /// Solver-latency watermarks (interval p99, ns), same roles.
  uint64_t widen_latency_ns = 20'000'000;  // 20 ms
  uint64_t tighten_latency_ns = 5'000'000;  // 5 ms
  /// Minimum admissions between tier moves. The dwell keeps a step load
  /// from oscillating: after a widen, the controller holds the tier
  /// until the signals have had `cooldown` admissions to respond.
  uint64_t cooldown = 256;
  /// Admissions between latency re-samples.
  uint64_t sample_every = 64;
  /// >= 0 pins the tier (benches and the CLI's deterministic runs);
  /// watermarks and cooldown are ignored.
  int forced_tier = -1;
};

/// Hysteresis tier ladder for one adaptive session: maps the same two
/// pressure signals the load-shed controller reads to a precision tier
/// in [0, num_tiers]. Single-threaded: called only from the session
/// reader, which stamps the returned tier onto each admitted item so
/// the worker applies tier changes at exact admission-order boundaries
/// (the determinism contract of docs/PRECISION.md).
class PrecisionController {
 public:
  /// `latency` may be null; it must outlive the controller.
  PrecisionController(PrecisionOptions options,
                      const obs::Histogram* latency);

  /// Tier for the current admission given aggregate queue depth.
  size_t Update(size_t total_depth, size_t total_capacity);

  size_t tier() const { return tier_; }
  uint64_t widen_events() const { return widen_events_; }
  uint64_t tighten_events() const { return tighten_events_; }
  double interval_p99_ns() const { return sampler_.p99_ns(); }

 private:
  PrecisionOptions options_;
  IntervalLatencySampler sampler_;
  size_t tier_ = 0;
  uint64_t admissions_ = 0;
  uint64_t last_move_admission_ = 0;
  uint64_t admits_since_sample_ = 0;
  uint64_t widen_events_ = 0;
  uint64_t tighten_events_ = 0;
};

}  // namespace serve
}  // namespace pulse

#endif  // PULSE_SERVE_ADMISSION_H_
