#include "engine/distinct.h"

#include "engine/epoch.h"
#include "util/logging.h"

namespace pulse {

EpochDistinct::EpochDistinct(std::string name,
                             std::shared_ptr<const Schema> schema,
                             double epoch_seconds, size_t key_index)
    : Operator(std::move(name)),
      schema_(std::move(schema)),
      epoch_seconds_(epoch_seconds),
      key_index_(key_index) {
  PULSE_CHECK(schema_ != nullptr);
  PULSE_CHECK(epoch_seconds_ > 0.0);
  PULSE_CHECK(key_index_ < schema_->num_fields());
}

Status EpochDistinct::Process(size_t port, const Tuple& input,
                              std::vector<Tuple>* out) {
  PULSE_CHECK(port == 0);
  metrics_.invocations->Increment();
  metrics_.tuples_in->Increment();
  const int64_t key = input.at(key_index_).as_int64();
  const int64_t epoch = EpochIndexOf(input.timestamp, epoch_seconds_);
  auto [it, inserted] = last_emitted_.emplace(key, epoch);
  if (!inserted) {
    if (it->second >= epoch) return Status::OK();  // already seen
    it->second = epoch;
  }
  out->push_back(input);
  metrics_.tuples_out->Increment();
  return Status::OK();
}

}  // namespace pulse
