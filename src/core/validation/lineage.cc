#include "core/validation/lineage.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"

namespace pulse {

void LineageStore::Record(uint64_t out_id, const Interval& out_range,
                          std::vector<LineageEntry> causes) {
  PULSE_CHECK(records_.empty() || records_.back().out_id < out_id);
  records_.push_back(OutputRecord{out_id, out_range, std::move(causes)});
}

const std::vector<LineageEntry>* LineageStore::Lookup(uint64_t out_id) const {
  auto it = std::lower_bound(
      records_.begin(), records_.end(), out_id,
      [](const OutputRecord& r, uint64_t id) { return r.out_id < id; });
  if (it == records_.end() || it->out_id != out_id) return nullptr;
  return &it->causes;
}

void LineageStore::ExpireBefore(double t) {
  std::erase_if(records_, [t](const OutputRecord& r) {
    return r.out_range.hi < t;
  });
}

uint64_t NextSegmentId() {
  static std::atomic<uint64_t> counter{0};
  return ++counter;
}

}  // namespace pulse
