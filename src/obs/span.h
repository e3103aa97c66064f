#ifndef PULSE_OBS_SPAN_H_
#define PULSE_OBS_SPAN_H_

#include <chrono>
#include <cstdint>

#include "obs/metrics.h"

namespace pulse {
namespace obs {

/// The registry PULSE_SPAN records into on this thread. Defaults to
/// DefaultRegistry(); runtimes scope it to their own registry around
/// executor pushes (ScopedMetricsRegistry) so span latencies land next
/// to the run's counters.
MetricsRegistry* CurrentRegistry();

/// Monotone count of registry switches on this thread (bumped by every
/// ScopedMetricsRegistry install and restore). SpanSite keys its cache
/// on this, not on the registry pointer alone: successive runtimes can
/// allocate their registries at the same recycled address, and a
/// pointer-only comparison would keep serving histogram pointers into
/// the previous registry's freed map nodes (ABA).
uint64_t CurrentRegistryEpoch();

/// RAII switch of the calling thread's current registry. Nesting
/// restores the previous registry on destruction. Pass nullptr to fall
/// back to DefaultRegistry().
class ScopedMetricsRegistry {
 public:
  explicit ScopedMetricsRegistry(MetricsRegistry* registry);
  ~ScopedMetricsRegistry();
  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

/// Scoped latency measurement: records elapsed nanoseconds into a
/// histogram on destruction. A null histogram makes the span inert —
/// callers can wire spans unconditionally and let registry absence
/// disable them — and so does -DPULSE_NO_METRICS.
class Span {
 public:
  explicit Span(Histogram* histogram)
      : histogram_(kMetricsEnabled ? histogram : nullptr) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~Span() {
    if (histogram_ == nullptr) return;
    histogram_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Cached histogram lookup for a PULSE_SPAN site: one static
/// thread_local per macro expansion, revalidated when the thread's
/// registry epoch changes (two thread-local loads on the hot path, the
/// map lookup only on first use or after a ScopedMetricsRegistry
/// switch). The epoch — not the registry pointer — is the cache key:
/// registries of short-lived runtimes get allocated at recycled
/// addresses, so a pointer comparison alone would keep a histogram
/// pointer into the previous registry's freed storage alive (ABA).
struct SpanSite {
  uint64_t epoch = ~uint64_t{0};
  Histogram* histogram = nullptr;

  Histogram* Resolve(const char* name) {
    const uint64_t current_epoch = CurrentRegistryEpoch();
    if (current_epoch != epoch) {
      epoch = current_epoch;
      MetricsRegistry* current = CurrentRegistry();
      histogram = current == nullptr
                      ? nullptr
                      : current->GetHistogram(std::string("span/") + name);
    }
    return histogram;
  }
};

}  // namespace obs
}  // namespace pulse

// Scoped latency span named `name` (a string literal), recorded as
// histogram "span/<name>" in the thread's current registry. Compiled
// out entirely under -DPULSE_NO_METRICS.
#if defined(PULSE_NO_METRICS)
#define PULSE_SPAN(name)
#else
#define PULSE_SPAN_CONCAT_INNER(a, b) a##b
#define PULSE_SPAN_CONCAT(a, b) PULSE_SPAN_CONCAT_INNER(a, b)
#define PULSE_SPAN(name)                                                  \
  static thread_local ::pulse::obs::SpanSite PULSE_SPAN_CONCAT(           \
      pulse_span_site_, __LINE__);                                        \
  ::pulse::obs::Span PULSE_SPAN_CONCAT(pulse_span_, __LINE__)(            \
      PULSE_SPAN_CONCAT(pulse_span_site_, __LINE__).Resolve(name))
#endif

#endif  // PULSE_OBS_SPAN_H_
