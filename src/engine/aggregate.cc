#include "engine/aggregate.h"

#include <cmath>

#include "util/logging.h"

namespace pulse {

const char* AggFnToString(AggFn fn) {
  switch (fn) {
    case AggFn::kMin:
      return "min";
    case AggFn::kMax:
      return "max";
    case AggFn::kSum:
      return "sum";
    case AggFn::kAvg:
      return "avg";
    case AggFn::kCount:
      return "count";
  }
  return "?";
}

double AggState::Finalize(AggFn fn) const {
  switch (fn) {
    case AggFn::kMin:
      return min;
    case AggFn::kMax:
      return max;
    case AggFn::kSum:
      return sum;
    case AggFn::kAvg:
      return count > 0 ? sum / static_cast<double>(count)
                       : std::nan("");
    case AggFn::kCount:
      return static_cast<double>(count);
  }
  return std::nan("");
}

WindowedAggregate::WindowedAggregate(
    std::string name, std::shared_ptr<const Schema> input_schema,
    WindowSpec window, AggFn fn, size_t value_field,
    std::string output_field)
    : Operator(std::move(name)),
      input_schema_(std::move(input_schema)),
      window_(window),
      fn_(fn),
      value_field_(value_field) {
  PULSE_CHECK(input_schema_ != nullptr);
  PULSE_CHECK(window_.size > 0.0 && window_.slide > 0.0);
  PULSE_CHECK(value_field_ < input_schema_->num_fields());
  output_schema_ =
      Schema::Make({{std::move(output_field), ValueType::kDouble}});
}

void WindowedAggregate::EnsureWindows(double t) {
  if (!have_origin_) {
    have_origin_ = true;
    // First full window spans [t, t + size).
    next_close_ = t + window_.size;
  }
  // Skip over closes that can no longer contain any tuple (silent gaps):
  // a window with close <= t excludes t, and every earlier tuple already
  // created the windows it belonged to.
  if (next_close_ <= t) {
    const double skips =
        std::floor((t - next_close_) / window_.slide) + 1.0;
    next_close_ += skips * window_.slide;
    while (next_close_ <= t) next_close_ += window_.slide;
  }
  // Create every window containing t: closes in (t, t + size].
  while (next_close_ <= t + window_.size) {
    windows_.push_back(OpenWindow{next_close_, AggState{}});
    next_close_ += window_.slide;
  }
}

void WindowedAggregate::CloseThrough(double t, std::vector<Tuple>* out) {
  while (!windows_.empty() && windows_.front().close <= t) {
    EmitWindow(windows_.front(), out);
    windows_.pop_front();
  }
}

void WindowedAggregate::EmitWindow(const OpenWindow& w,
                                   std::vector<Tuple>* out) {
  if (w.state.count == 0) return;  // empty windows produce no result
  Tuple result;
  result.timestamp = w.close;
  result.values.push_back(Value(w.state.Finalize(fn_)));
  out->push_back(std::move(result));
  metrics_.tuples_out->Increment();
}

Status WindowedAggregate::Process(size_t port, const Tuple& input,
                                  std::vector<Tuple>* out) {
  PULSE_CHECK(port == 0);
  metrics_.invocations->Increment();
  metrics_.tuples_in->Increment();
  const double t = input.timestamp;
  CloseThrough(t, out);
  EnsureWindows(t);
  const double v = input.at(value_field_).as_double();
  // Every remaining window contains t (see EnsureWindows invariant); the
  // state-increment count per tuple is size/slide, the discrete cost the
  // paper measures against window size.
  for (OpenWindow& w : windows_) {
    w.state.Update(v);
    metrics_.comparisons->Increment();
  }
  return Status::OK();
}

Status WindowedAggregate::AdvanceTime(double t, std::vector<Tuple>* out) {
  CloseThrough(t, out);
  return Status::OK();
}

Status WindowedAggregate::Flush(std::vector<Tuple>* out) {
  for (const OpenWindow& w : windows_) EmitWindow(w, out);
  windows_.clear();
  return Status::OK();
}

}  // namespace pulse
