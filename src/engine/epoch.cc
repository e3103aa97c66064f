#include "engine/epoch.h"

#include <cmath>

#include "util/logging.h"

namespace pulse {

int64_t EpochIndexOf(double t, double epoch_seconds) {
  return static_cast<int64_t>(std::floor(t / epoch_seconds));
}

EpochMark::EpochMark(std::string name,
                     std::shared_ptr<const Schema> input_schema,
                     double epoch_seconds, std::string output_attribute)
    : Operator(std::move(name)), epoch_seconds_(epoch_seconds) {
  PULSE_CHECK(input_schema != nullptr);
  PULSE_CHECK(epoch_seconds_ > 0.0);
  std::vector<Field> fields = input_schema->fields();
  fields.push_back({std::move(output_attribute), ValueType::kInt64});
  schema_ = Schema::Make(std::move(fields));
}

Status EpochMark::Process(size_t port, const Tuple& input,
                          std::vector<Tuple>* out) {
  PULSE_CHECK(port == 0);
  metrics_.invocations->Increment();
  metrics_.tuples_in->Increment();
  Tuple result = input;
  result.values.emplace_back(EpochIndexOf(input.timestamp, epoch_seconds_));
  out->push_back(std::move(result));
  metrics_.tuples_out->Increment();
  return Status::OK();
}

}  // namespace pulse
