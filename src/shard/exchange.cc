#include "shard/exchange.h"

#include <utility>

namespace pulse {
namespace shard {

void ExchangeRecord::Reserve(size_t n, size_t values) {
  if (tuples == nullptr) tuples = std::make_unique<TupleBatch>();
  tuples->slots.reserve(n);
  tuples->values.reserve(values);
}

void ExchangeRecord::AddTuple(const Tuple& tuple, uint32_t position) {
  if (tuples == nullptr) tuples = std::make_unique<TupleBatch>();
  std::vector<Value>& values = tuples->values;
  values.insert(values.end(), tuple.values.begin(), tuple.values.end());
  tuples->slots.push_back(
      {tuple.timestamp, position, static_cast<uint32_t>(values.size())});
}

void ExchangeRecord::TupleAt(size_t i, Tuple* out) const {
  const std::vector<Slot>& slots = tuples->slots;
  const uint32_t begin = i == 0 ? 0 : slots[i - 1].values_end;
  out->timestamp = slots[i].timestamp;
  out->values.assign(tuples->values.begin() + begin,
                     tuples->values.begin() + slots[i].values_end);
}

ExchangeQueue::ExchangeQueue(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

bool ExchangeQueue::Push(ExchangeRecord record) {
  const size_t w = record.weight();
  {
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock, [&] {
      return closed_ || records_.empty() || weight_ + w <= capacity_;
    });
    if (closed_) return false;
    weight_ += w;
    records_.push_back(std::move(record));
  }
  ready_cv_.notify_one();
  return true;
}

bool ExchangeQueue::Pop(ExchangeRecord* out) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    ready_cv_.wait(lock, [&] { return closed_ || !records_.empty(); });
    if (records_.empty()) return false;
    *out = std::move(records_.front());
    records_.pop_front();
    weight_ -= out->weight();
  }
  space_cv_.notify_all();
  return true;
}

void ExchangeQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  space_cv_.notify_all();
  ready_cv_.notify_all();
}

size_t ExchangeQueue::weight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return weight_;
}

}  // namespace shard
}  // namespace pulse
