#ifndef PULSE_UTIL_ATOMIC_COUNTER_H_
#define PULSE_UTIL_ATOMIC_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace pulse {

/// Drop-in replacement for a uint64_t statistics counter that exporters
/// may read from other threads while the owning thread counts. All
/// operations use relaxed ordering: counters order nothing, they only
/// have to count. Copy and assignment take value snapshots so the
/// metrics structs keep their plain-struct semantics (Reset via
/// `*this = {}`, roll-ups via `a += b`).
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(uint64_t v) : v_(v) {}  // NOLINT: implicit by design
  RelaxedCounter(const RelaxedCounter& other) : v_(other.value()) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) {
    v_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }

  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  operator uint64_t() const { return value(); }  // NOLINT: implicit by design

  RelaxedCounter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  uint64_t operator++(int) {
    return v_.fetch_add(1, std::memory_order_relaxed);
  }
  RelaxedCounter& operator+=(uint64_t delta) {
    v_.fetch_add(delta, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<uint64_t> v_{0};
};

}  // namespace pulse

#endif  // PULSE_UTIL_ATOMIC_COUNTER_H_
