#include "core/operators/group_by.h"

#include <utility>

#include "obs/span.h"
#include "util/logging.h"

namespace pulse {

PulseGroupBy::PulseGroupBy(std::string name, InnerFactory factory)
    : PulseOperator(std::move(name)), factory_(std::move(factory)) {
  PULSE_CHECK(factory_ != nullptr);
}

Result<PulseOperator*> PulseGroupBy::GetOrCreate(Key group) {
  auto it = groups_.find(group);
  if (it != groups_.end()) return it->second.get();
  PULSE_ASSIGN_OR_RETURN(std::unique_ptr<PulseOperator> inner,
                         factory_(group));
  PulseOperator* raw = inner.get();
  raw->metrics().solves = metrics_.solves;
  groups_.emplace(group, std::move(inner));
  return raw;
}

void PulseGroupBy::BindMetrics(obs::MetricsRegistry* registry) {
  PulseOperator::BindMetrics(registry);
  for (auto& [group, inner] : groups_) {
    inner->metrics().solves = metrics_.solves;
  }
}

PulseOperator* PulseGroupBy::group_operator(Key group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? nullptr : it->second.get();
}

Status PulseGroupBy::Process(size_t port, const Segment& segment,
                             SegmentBatch* out) {
  PULSE_CHECK(port == 0);
  metrics_.segments_in->Increment();
  PULSE_ASSIGN_OR_RETURN(PulseOperator * inner, GetOrCreate(segment.key));
  SegmentBatch inner_out;
  PULSE_RETURN_IF_ERROR(inner->Process(0, segment, &inner_out));
  for (Segment& s : inner_out) {
    s.key = segment.key;  // outputs stay keyed by group
    out->push_back(std::move(s));
    metrics_.segments_out->Increment();
  }
  metrics_.state_size.Set(groups_.size());
  return Status::OK();
}

Result<std::vector<AllocatedBound>> PulseGroupBy::InvertBound(
    const Segment& output, const std::string& attribute, double margin,
    const SplitHeuristic& split) const {
  PulseOperator* inner = group_operator(output.key);
  if (inner == nullptr) {
    return Status::NotFound("no group operator for key " +
                            std::to_string(output.key));
  }
  return inner->InvertBound(output, attribute, margin, split);
}

const std::vector<LineageEntry>* PulseGroupBy::LookupCauses(
    const Segment& output) const {
  PulseOperator* inner = group_operator(output.key);
  return inner == nullptr ? nullptr : inner->LookupCauses(output);
}

Status PulseGroupBy::Flush(SegmentBatch* out) {
  PULSE_SPAN("group_by/flush");
  // Groups flush in ascending key order (groups_ is an ordered map);
  // each group's tail is re-keyed with the group key, as in Process.
  for (auto& [group, inner] : groups_) {
    const size_t begin = out->size();
    PULSE_RETURN_IF_ERROR(inner->Flush(out));
    for (size_t i = begin; i < out->size(); ++i) {
      (*out)[i].key = group;
      metrics_.segments_out->Increment();
    }
  }
  return Status::OK();
}

}  // namespace pulse
