#ifndef PULSE_UTIL_WORK_SIGNAL_H_
#define PULSE_UTIL_WORK_SIGNAL_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace pulse {

/// Edge-triggered wakeup for a session's worker: the ingest queue
/// Notify()s after every push, the shard pool after every output
/// release, and the worker Wait()s on an epoch it read before finding
/// the queue empty (the classic eventcount, so a push between scan and
/// wait is never lost).
class WorkSignal {
 public:
  uint64_t epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return epoch_;
  }

  void Notify() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++epoch_;
    }
    cv_.notify_all();
  }

  /// Blocks until the epoch advances past `seen`; returns the new epoch.
  uint64_t Wait(uint64_t seen) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return epoch_ != seen; });
    return epoch_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t epoch_ = 0;
};

}  // namespace pulse

#endif  // PULSE_UTIL_WORK_SIGNAL_H_
