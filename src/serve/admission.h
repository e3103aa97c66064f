#ifndef PULSE_SERVE_ADMISSION_H_
#define PULSE_SERVE_ADMISSION_H_

#include <array>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "core/precision.h"
#include "obs/metrics.h"

namespace pulse {
namespace serve {

/// Interval-p99 view over a set of (possibly shared) latency
/// histograms, read as their bucket-wise sum: each Sample() takes the
/// delta of the summed bucket counts since the previous sample, so
/// recovery shows up immediately instead of being averaged away by the
/// cumulative distribution. When no new observations arrived the signal
/// reads 0 (stale, not elevated) — an idle solver must never pin a
/// controller in its degraded state. Each session's
/// AdmissionController reads its solver latency through one of these.
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

/// The overload controller's fixed thresholds. Each signal uses
/// watermark hysteresis so the controller does not flap at a boundary:
/// a state is entered above its high mark and left only below its low
/// mark. The precision marks sit *below* the load-shed ones (widen at
/// 0.60 of queue capacity vs shed at 0.90), so under rising pressure a
/// session first trades accuracy for throughput — cheaper segments,
/// fewer solves, provisional answers — and sheds tuples only when the
/// widest budget still cannot keep up (docs/PRECISION.md).
///
/// Queue depth is a fraction of the session's total queue capacity;
/// latency is the interval p99 of the solver's span/runtime/push_segment
/// histograms, in nanoseconds.
inline constexpr double kShedQueueWatermark = 0.90;
inline constexpr double kRecoverQueueWatermark = 0.50;
inline constexpr uint64_t kShedLatencyNs = 50'000'000;     // 50 ms
inline constexpr uint64_t kRecoverLatencyNs = 10'000'000;  // 10 ms
inline constexpr double kWidenQueueWatermark = 0.60;
inline constexpr double kTightenQueueWatermark = 0.25;
inline constexpr uint64_t kWidenLatencyNs = 20'000'000;   // 20 ms
inline constexpr uint64_t kTightenLatencyNs = 5'000'000;  // 5 ms
/// Admitted frames between tier moves. The dwell keeps a step load from
/// oscillating: after a move, the tier holds until the signals have had
/// this many admissions to respond.
inline constexpr uint64_t kTierDwell = 256;
/// Frames between latency re-samples (sampling reads 2 KiB of bucket
/// counters; once per frame would dominate the hot path).
inline constexpr uint64_t kLatencySampleEvery = 64;

/// Load shedding.
struct AdmissionOptions {
  /// Master switch; disabled means every well-formed item is admitted
  /// subject only to the queue policy (the lossless configuration the
  /// serving differential runs under).
  bool enabled = true;
};

/// The precision stage ahead of load shedding (docs/PRECISION.md).
struct PrecisionOptions {
  /// Master switch. Off = static precision: the session never defers,
  /// never emits provisional/confirm/retract frames, and behaves
  /// exactly as before this stage existed.
  bool enabled = false;
  /// >= 0 pins the tier (benches and the CLI's deterministic runs);
  /// the precision watermarks and the dwell are ignored.
  int forced_tier = -1;
  /// Widened tiers above the exact tier 0: tier k selects ladder[k-1].
  /// Must be non-empty when enabled.
  std::vector<PrecisionTier> ladder = DefaultPrecisionLadder();
};

enum class AdmitDecision : uint8_t {
  kAdmit = 0,
  /// Shed because queue depth is above the shed watermark.
  kShedQueue = 1,
  /// Shed because solver latency p99 is above the shed threshold.
  kShedLatency = 2,
};

/// The controller's answer for one arriving frame.
struct AdmitOutcome {
  AdmitDecision decision = AdmitDecision::kAdmit;
  /// Precision tier to stamp on the frame (0 = exact; always 0 unless
  /// precision is enabled).
  size_t tier = 0;
};

/// Overload controller for one session. Reads two signals: aggregate
/// ingest-queue depth (memory / queueing-delay pressure) and solver
/// latency (the downstream stage's actual service time, read from the
/// obs histograms the runtime already maintains, through one sampler).
/// From them it decides whether to shed the frame and, for an adaptive
/// session, which precision tier in [0, ladder size] to stamp on it; the
/// worker applies tier changes at exact admission-order boundaries (the
/// determinism contract of docs/PRECISION.md). The tier moves only on
/// admitted frames, at most once per kTierDwell admissions.
/// Single-threaded: called only from the session reader.
class AdmissionController {
 public:
  /// `latency` may be empty (no latency signal, queue depth only); the
  /// histograms must outlive the controller.
  AdmissionController(AdmissionOptions admission, PrecisionOptions precision,
                      std::vector<const obs::Histogram*> latency);

  /// Decision for one arriving frame given current aggregate depth.
  AdmitOutcome Admit(size_t total_depth, size_t total_capacity);

  bool overloaded() const { return queue_overloaded_ || latency_overloaded_; }
  size_t tier() const { return tier_; }
  uint64_t widen_events() const { return widen_events_; }
  uint64_t tighten_events() const { return tighten_events_; }

 private:
  /// Moves the tier one step if the dwell allows and a signal asks.
  void UpdateTier(double fraction);

  const bool shedding_;
  /// The tier follows the signals (precision on, tier not pinned).
  const bool adaptive_;
  const size_t num_tiers_;
  IntervalLatencySampler sampler_;
  uint64_t frames_since_sample_ = 0;
  bool queue_overloaded_ = false;
  bool latency_overloaded_ = false;
  size_t tier_ = 0;
  uint64_t admissions_ = 0;
  uint64_t last_move_admission_ = 0;
  uint64_t widen_events_ = 0;
  uint64_t tighten_events_ = 0;
};

}  // namespace serve
}  // namespace pulse

#endif  // PULSE_SERVE_ADMISSION_H_
