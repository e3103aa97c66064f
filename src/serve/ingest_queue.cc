#include "serve/ingest_queue.h"

#include <chrono>
#include <utility>

namespace pulse {
namespace serve {

const char* BackpressurePolicyToString(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kDropOldest:
      return "drop_oldest";
    case BackpressurePolicy::kShed:
      return "shed";
  }
  return "unknown";
}

IngestQueue::IngestQueue(size_t capacity, WorkSignal* signal)
    : capacity_(capacity == 0 ? 1 : capacity), signal_(signal) {}

PushResult IngestQueue::TryPush(IngestItem* item, BackpressurePolicy policy,
                                uint64_t* dropped) {
  const size_t w = item->weight();
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return PushResult::kClosed;
  uint64_t evicted = 0;
  if (!FitsLocked(w)) {
    if (policy == BackpressurePolicy::kBlock) return PushResult::kWouldBlock;
    if (policy == BackpressurePolicy::kShed) return PushResult::kShed;
    while (!FitsLocked(w)) {
      evicted += items_.front().weight();
      weight_ -= items_.front().weight();
      items_.pop_front();
    }
  }
  weight_ += w;
  items_.push_back(std::move(*item));
  if (evicted != 0 && dropped != nullptr) *dropped = evicted;
  if (signal_ != nullptr) signal_->Notify();
  return evicted != 0 ? PushResult::kDroppedOldest : PushResult::kAccepted;
}

bool IngestQueue::PushBlocking(IngestItem item, uint64_t* blocked_ns) {
  const auto start = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock, [&] { return closed_ || FitsLocked(item.weight()); });
    if (blocked_ns != nullptr) {
      *blocked_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
    if (closed_) return false;
    weight_ += item.weight();
    items_.push_back(std::move(item));
  }
  if (signal_ != nullptr) signal_->Notify();
  return true;
}

bool IngestQueue::PopAll(std::vector<IngestItem>* out) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return false;
    for (IngestItem& item : items_) out->push_back(std::move(item));
    items_.clear();
    weight_ = 0;
  }
  space_cv_.notify_all();
  return true;
}

size_t IngestQueue::weight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return weight_;
}

void IngestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  space_cv_.notify_all();
  if (signal_ != nullptr) signal_->Notify();
}

}  // namespace serve
}  // namespace pulse
