#include "workload/replay.h"

#include "util/csv.h"
#include "util/string_util.h"

namespace pulse {

Status TraceFile::Write(const std::string& path, const Schema& schema,
                        const std::vector<Tuple>& tuples) {
  PULSE_ASSIGN_OR_RETURN(CsvWriter writer, CsvWriter::Open(path));
  std::vector<std::string> header = {"timestamp"};
  for (const Field& f : schema.fields()) header.push_back(f.name);
  writer.WriteRow(header);
  std::vector<std::string> row;
  for (const Tuple& t : tuples) {
    row.clear();
    row.push_back(FormatDouble(t.timestamp));
    for (const Value& v : t.values) row.push_back(v.ToString());
    writer.WriteRow(row);
  }
  return writer.Close();
}

Result<std::vector<Tuple>> TraceFile::Load(const std::string& path,
                                           const Schema& schema) {
  PULSE_ASSIGN_OR_RETURN(CsvReader reader, CsvReader::Open(path));
  std::vector<Tuple> out;
  std::vector<std::string> row;
  bool first = true;
  while (reader.Next(&row)) {
    if (first) {
      first = false;  // header
      continue;
    }
    if (row.size() != schema.num_fields() + 1) {
      return Status::IoError("trace row has " + std::to_string(row.size()) +
                             " fields, expected " +
                             std::to_string(schema.num_fields() + 1));
    }
    Tuple t;
    PULSE_ASSIGN_OR_RETURN(t.timestamp, ParseDouble(row[0]));
    t.values.reserve(schema.num_fields());
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      switch (schema.field(i).type) {
        case ValueType::kInt64: {
          PULSE_ASSIGN_OR_RETURN(int64_t v, ParseInt64(row[i + 1]));
          t.values.emplace_back(v);
          break;
        }
        case ValueType::kDouble: {
          PULSE_ASSIGN_OR_RETURN(double v, ParseDouble(row[i + 1]));
          t.values.emplace_back(v);
          break;
        }
        case ValueType::kString:
          t.values.push_back(Value(row[i + 1]));
          break;
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<Tuple> RescaleRate(const std::vector<Tuple>& trace,
                               double factor) {
  std::vector<Tuple> out = trace;
  if (out.empty() || factor <= 0.0) return out;
  const double t0 = out.front().timestamp;
  for (Tuple& t : out) {
    t.timestamp = t0 + (t.timestamp - t0) / factor;
  }
  return out;
}

PacedReplay::PacedReplay(std::vector<Tuple> trace, double tuples_per_second)
    : trace_(std::move(trace)), rate_(tuples_per_second) {
  if (!trace_.empty()) t0_ = trace_.front().timestamp;
}

bool PacedReplay::Next(Tuple* tuple, uint64_t* offset_ns) {
  if (pos_ >= trace_.size()) return false;
  const Tuple& next = trace_[pos_];
  double offset_s;
  if (rate_ > 0.0) {
    offset_s = static_cast<double>(pos_) / rate_;
  } else {
    offset_s = next.timestamp - t0_;
    if (offset_s < 0.0) offset_s = 0.0;  // out-of-order event time
  }
  *tuple = next;
  *offset_ns = static_cast<uint64_t>(offset_s * 1e9);
  ++pos_;
  return true;
}

}  // namespace pulse
