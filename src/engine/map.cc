#include "engine/map.h"

#include "util/logging.h"

namespace pulse {

MapOperator::MapOperator(std::string name, std::vector<MapColumn> columns)
    : Operator(std::move(name)), columns_(std::move(columns)) {
  std::vector<Field> fields;
  fields.reserve(columns_.size());
  for (const MapColumn& c : columns_) fields.push_back(c.field);
  schema_ = Schema::Make(std::move(fields));
}

Status MapOperator::Process(size_t port, const Tuple& input,
                            std::vector<Tuple>* out) {
  PULSE_CHECK(port == 0);
  metrics_.invocations->Increment();
  metrics_.tuples_in->Increment();
  Tuple result;
  result.timestamp = input.timestamp;
  result.values.reserve(columns_.size());
  for (const MapColumn& c : columns_) {
    result.values.push_back(c.expr(input));
  }
  out->push_back(std::move(result));
  metrics_.tuples_out->Increment();
  return Status::OK();
}

}  // namespace pulse
