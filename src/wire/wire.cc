#include "wire/wire.h"

#include <bit>
#include <utility>
#include <vector>

namespace pulse {
namespace wire {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

Status Truncated(const char* what) {
  return Status::IoError(std::string("truncated frame payload: ") + what);
}

Result<uint8_t> GetU8(Cursor* c, const char* what) {
  if (c->remaining() < 1) return Truncated(what);
  return static_cast<uint8_t>(c->data[c->pos++]);
}

Result<uint16_t> GetU16(Cursor* c, const char* what) {
  if (c->remaining() < 2) return Truncated(what);
  uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v |= static_cast<uint16_t>(static_cast<uint8_t>(c->data[c->pos++]))
         << (8 * i);
  }
  return v;
}

Result<uint32_t> GetU32(Cursor* c, const char* what) {
  if (c->remaining() < 4) return Truncated(what);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(c->data[c->pos++]))
         << (8 * i);
  }
  return v;
}

Result<uint64_t> GetU64(Cursor* c, const char* what) {
  if (c->remaining() < 8) return Truncated(what);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(c->data[c->pos++]))
         << (8 * i);
  }
  return v;
}

Result<int64_t> GetI64(Cursor* c, const char* what) {
  PULSE_ASSIGN_OR_RETURN(uint64_t v, GetU64(c, what));
  return static_cast<int64_t>(v);
}

Result<double> GetF64(Cursor* c, const char* what) {
  PULSE_ASSIGN_OR_RETURN(uint64_t bits, GetU64(c, what));
  return std::bit_cast<double>(bits);
}

Result<std::string> GetString(Cursor* c, const char* what) {
  PULSE_ASSIGN_OR_RETURN(uint32_t n, GetU32(c, what));
  if (c->remaining() < n) return Truncated(what);
  std::string s(c->data + c->pos, n);
  c->pos += n;
  return s;
}

void PutTuple(std::string* out, const Tuple& tuple) {
  PutF64(out, tuple.timestamp);
  PutU16(out, static_cast<uint16_t>(tuple.values.size()));
  for (const Value& v : tuple.values) {
    switch (v.type()) {
      case ValueType::kInt64:
        PutU8(out, 0);
        PutI64(out, v.as_int64());
        break;
      case ValueType::kDouble:
        PutU8(out, 1);
        PutF64(out, v.as_double());
        break;
      case ValueType::kString:
        PutU8(out, 2);
        PutString(out, v.as_string());
        break;
    }
  }
}

Result<Tuple> GetTuple(Cursor* c) {
  Tuple tuple;
  PULSE_ASSIGN_OR_RETURN(tuple.timestamp, GetF64(c, "tuple timestamp"));
  PULSE_ASSIGN_OR_RETURN(uint16_t n, GetU16(c, "tuple field count"));
  tuple.values.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    PULSE_ASSIGN_OR_RETURN(uint8_t tag, GetU8(c, "value tag"));
    switch (tag) {
      case 0: {
        PULSE_ASSIGN_OR_RETURN(int64_t v, GetI64(c, "int64 value"));
        tuple.values.emplace_back(v);
        break;
      }
      case 1: {
        PULSE_ASSIGN_OR_RETURN(double v, GetF64(c, "double value"));
        tuple.values.emplace_back(v);
        break;
      }
      case 2: {
        PULSE_ASSIGN_OR_RETURN(std::string v, GetString(c, "string value"));
        tuple.values.emplace_back(std::move(v));
        break;
      }
      default:
        return Status::IoError("unknown value tag " + std::to_string(tag));
    }
  }
  return tuple;
}

void PutSegment(std::string* out, const Segment& s) {
  PutI64(out, s.key);
  PutU64(out, s.id);
  PutF64(out, s.range.lo);
  PutF64(out, s.range.hi);
  PutU8(out, static_cast<uint8_t>((s.range.lo_open ? 1 : 0) |
                                  (s.range.hi_open ? 2 : 0)));
  PutU16(out, static_cast<uint16_t>(s.attributes.size()));
  for (const auto& [name, poly] : s.attributes) {
    PutString(out, name);
    const uint16_t ncoeff =
        poly.IsZero() ? 0 : static_cast<uint16_t>(poly.degree() + 1);
    PutU16(out, ncoeff);
    for (uint16_t i = 0; i < ncoeff; ++i) PutF64(out, poly.coeff(i));
  }
  PutU16(out, static_cast<uint16_t>(s.unmodeled.size()));
  for (const auto& [name, value] : s.unmodeled) {
    PutString(out, name);
    PutF64(out, value);
  }
}

Result<Segment> GetSegment(Cursor* c) {
  Segment s;
  PULSE_ASSIGN_OR_RETURN(s.key, GetI64(c, "segment key"));
  PULSE_ASSIGN_OR_RETURN(s.id, GetU64(c, "segment id"));
  PULSE_ASSIGN_OR_RETURN(s.range.lo, GetF64(c, "segment range lo"));
  PULSE_ASSIGN_OR_RETURN(s.range.hi, GetF64(c, "segment range hi"));
  PULSE_ASSIGN_OR_RETURN(uint8_t flags, GetU8(c, "segment range flags"));
  s.range.lo_open = (flags & 1) != 0;
  s.range.hi_open = (flags & 2) != 0;
  PULSE_ASSIGN_OR_RETURN(uint16_t nattrs, GetU16(c, "attribute count"));
  for (uint16_t i = 0; i < nattrs; ++i) {
    PULSE_ASSIGN_OR_RETURN(std::string name, GetString(c, "attribute name"));
    PULSE_ASSIGN_OR_RETURN(uint16_t ncoeff,
                           GetU16(c, "coefficient count"));
    if (ncoeff == 0) {
      s.attributes[std::move(name)] = Polynomial();
      continue;
    }
    std::vector<double> coeffs(ncoeff);
    for (uint16_t j = 0; j < ncoeff; ++j) {
      PULSE_ASSIGN_OR_RETURN(coeffs[j], GetF64(c, "coefficient"));
    }
    s.attributes[std::move(name)] = Polynomial(std::move(coeffs));
  }
  PULSE_ASSIGN_OR_RETURN(uint16_t nunmodeled, GetU16(c, "unmodeled count"));
  for (uint16_t i = 0; i < nunmodeled; ++i) {
    PULSE_ASSIGN_OR_RETURN(std::string name, GetString(c, "unmodeled name"));
    PULSE_ASSIGN_OR_RETURN(double value, GetF64(c, "unmodeled value"));
    s.unmodeled[std::move(name)] = value;
  }
  return s;
}

}  // namespace wire
}  // namespace pulse
