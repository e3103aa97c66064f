#include "engine/group_by.h"

#include <cmath>

#include "util/logging.h"

namespace pulse {

GroupedWindowedAggregate::GroupedWindowedAggregate(
    std::string name, std::shared_ptr<const Schema> input_schema,
    WindowSpec window, AggFn fn, size_t value_field, size_t group_field,
    std::string output_field)
    : Operator(std::move(name)),
      input_schema_(std::move(input_schema)),
      window_(window),
      fn_(fn),
      value_field_(value_field),
      group_field_(group_field) {
  PULSE_CHECK(input_schema_ != nullptr);
  PULSE_CHECK(window_.size > 0.0 && window_.slide > 0.0);
  PULSE_CHECK(value_field_ < input_schema_->num_fields());
  PULSE_CHECK(group_field_ < input_schema_->num_fields());
  output_schema_ = Schema::Make(
      {{"group", input_schema_->field(group_field_).type},
       {std::move(output_field), ValueType::kDouble}});
}

void GroupedWindowedAggregate::EnsureWindows(double t) {
  if (!have_origin_) {
    have_origin_ = true;
    next_close_ = t + window_.size;
  }
  if (next_close_ <= t) {
    const double skips =
        std::floor((t - next_close_) / window_.slide) + 1.0;
    next_close_ += skips * window_.slide;
    while (next_close_ <= t) next_close_ += window_.slide;
  }
  while (next_close_ <= t + window_.size) {
    windows_.push_back(OpenWindow{next_close_, {}});
    next_close_ += window_.slide;
  }
}

void GroupedWindowedAggregate::CloseThrough(double t,
                                            std::vector<Tuple>* out) {
  while (!windows_.empty() && windows_.front().close <= t) {
    EmitWindow(windows_.front(), out);
    windows_.pop_front();
  }
}

void GroupedWindowedAggregate::EmitWindow(const OpenWindow& w,
                                          std::vector<Tuple>* out) {
  for (const auto& [group, state] : w.groups) {
    if (state.count == 0) continue;
    Tuple result;
    result.timestamp = w.close;
    result.values.push_back(group);
    result.values.emplace_back(state.Finalize(fn_));
    out->push_back(std::move(result));
    metrics_.tuples_out->Increment();
  }
}

Status GroupedWindowedAggregate::Process(size_t port, const Tuple& input,
                                         std::vector<Tuple>* out) {
  PULSE_CHECK(port == 0);
  metrics_.invocations->Increment();
  metrics_.tuples_in->Increment();
  const double t = input.timestamp;
  CloseThrough(t, out);
  EnsureWindows(t);
  const Value& group = input.at(group_field_);
  const double v = input.at(value_field_).as_double();
  for (OpenWindow& w : windows_) {
    w.groups[group].Update(v);
    metrics_.comparisons->Increment();
  }
  return Status::OK();
}

Status GroupedWindowedAggregate::AdvanceTime(double t,
                                             std::vector<Tuple>* out) {
  CloseThrough(t, out);
  return Status::OK();
}

Status GroupedWindowedAggregate::Flush(std::vector<Tuple>* out) {
  for (const OpenWindow& w : windows_) EmitWindow(w, out);
  windows_.clear();
  return Status::OK();
}

}  // namespace pulse
