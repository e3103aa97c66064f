#include "engine/filter.h"

#include "util/logging.h"

namespace pulse {

bool EvaluateComparison(const Tuple& tuple, const FieldComparison& cmp) {
  const Value& lhs = tuple.at(cmp.lhs_field);
  const Value& rhs = cmp.rhs.Resolve(tuple);
  switch (cmp.op) {
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return !(rhs < lhs);
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
    case CmpOp::kGe:
      return !(lhs < rhs);
    case CmpOp::kGt:
      return rhs < lhs;
  }
  return false;
}

ComparisonFilter::ComparisonFilter(std::string name,
                                   std::shared_ptr<const Schema> schema,
                                   std::vector<FieldComparison> predicate)
    : Operator(std::move(name)),
      schema_(std::move(schema)),
      predicate_(std::move(predicate)) {
  PULSE_CHECK(schema_ != nullptr);
}

Status ComparisonFilter::Process(size_t port, const Tuple& input,
                                 std::vector<Tuple>* out) {
  PULSE_CHECK(port == 0);
  metrics_.invocations->Increment();
  metrics_.tuples_in->Increment();
  bool pass = true;
  for (const FieldComparison& cmp : predicate_) {
    metrics_.comparisons->Increment();
    if (!EvaluateComparison(input, cmp)) {
      pass = false;
      break;
    }
  }
  if (pass) {
    out->push_back(input);
    metrics_.tuples_out->Increment();
  }
  return Status::OK();
}

LambdaFilter::LambdaFilter(std::string name,
                           std::shared_ptr<const Schema> schema,
                           std::function<bool(const Tuple&)> predicate)
    : Operator(std::move(name)),
      schema_(std::move(schema)),
      predicate_(std::move(predicate)) {
  PULSE_CHECK(schema_ != nullptr);
  PULSE_CHECK(predicate_ != nullptr);
}

Status LambdaFilter::Process(size_t port, const Tuple& input,
                             std::vector<Tuple>* out) {
  PULSE_CHECK(port == 0);
  metrics_.invocations->Increment();
  metrics_.tuples_in->Increment();
  metrics_.comparisons->Increment();
  if (predicate_(input)) {
    out->push_back(input);
    metrics_.tuples_out->Increment();
  }
  return Status::OK();
}

}  // namespace pulse
