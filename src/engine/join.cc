#include "engine/join.h"

#include "engine/filter.h"
#include "util/logging.h"

namespace pulse {

SlidingWindowJoin::SlidingWindowJoin(
    std::string name, std::shared_ptr<const Schema> left_schema,
    std::shared_ptr<const Schema> right_schema, double window_seconds,
    std::vector<JoinComparison> predicate,
    std::function<bool(const Tuple&, const Tuple&)> extra_predicate,
    const std::string& left_prefix, const std::string& right_prefix)
    : Operator(std::move(name)),
      left_schema_(std::move(left_schema)),
      right_schema_(std::move(right_schema)),
      window_seconds_(window_seconds),
      predicate_(std::move(predicate)),
      extra_predicate_(std::move(extra_predicate)) {
  PULSE_CHECK(left_schema_ != nullptr && right_schema_ != nullptr);
  PULSE_CHECK(window_seconds_ > 0.0);
  output_schema_ =
      Schema::Concat(*left_schema_, *right_schema_, left_prefix,
                     right_prefix);
}

bool SlidingWindowJoin::Matches(const Tuple& left, const Tuple& right) {
  for (const JoinComparison& cmp : predicate_) {
    metrics_.comparisons->Increment();
    FieldComparison fc;
    fc.lhs_field = cmp.lhs_field;
    fc.op = cmp.op;
    // Compare across tuples without materializing a concat: resolve the
    // right side as a constant.
    fc.rhs = Comparand::Const(right.at(cmp.rhs_field));
    if (!EvaluateComparison(left, fc)) return false;
  }
  if (extra_predicate_) {
    metrics_.comparisons->Increment();
    if (!extra_predicate_(left, right)) return false;
  }
  return true;
}

void SlidingWindowJoin::Expire(double now) {
  const double horizon = now - window_seconds_;
  while (!left_.empty() && left_.front().timestamp < horizon) {
    left_.pop_front();
  }
  while (!right_.empty() && right_.front().timestamp < horizon) {
    right_.pop_front();
  }
}

Status SlidingWindowJoin::Process(size_t port, const Tuple& input,
                                  std::vector<Tuple>* out) {
  PULSE_CHECK(port < 2);
  metrics_.invocations->Increment();
  metrics_.tuples_in->Increment();
  Expire(input.timestamp);
  if (port == 0) {
    for (const Tuple& r : right_) {
      if (Matches(input, r)) {
        out->push_back(Tuple::Concat(input, r));
        metrics_.tuples_out->Increment();
      }
    }
    left_.push_back(input);
  } else {
    for (const Tuple& l : left_) {
      if (Matches(l, input)) {
        out->push_back(Tuple::Concat(l, input));
        metrics_.tuples_out->Increment();
      }
    }
    right_.push_back(input);
  }
  return Status::OK();
}

Status SlidingWindowJoin::AdvanceTime(double t, std::vector<Tuple>* /*out*/) {
  Expire(t);
  return Status::OK();
}

}  // namespace pulse
