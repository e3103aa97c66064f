#ifndef PULSE_WIRE_WIRE_H_
#define PULSE_WIRE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "engine/tuple.h"
#include "model/segment.h"
#include "util/result.h"

namespace pulse {
namespace wire {

/// Shared wire codec primitives: the serving frame protocol and the
/// durable segment store (src/store/) encode with the same conventions
/// so a segment persisted to disk is byte-identical to one sent over a
/// socket. All integers little-endian; doubles travel as their IEEE-754
/// bit pattern so values round-trip bit-exactly (the serving
/// differential and the store's recovery hash both rely on
/// byte-for-byte equality).

/// Upper bound on one length-prefixed payload: a serving frame
/// (serve::FrameReader) or a segment log record (store::ScanLog). Both
/// reject a larger length prefix before buffering it, so a garbage
/// prefix cannot make a reader allocate gigabytes.
inline constexpr size_t kMaxPayloadBytes = 4u << 20;  // 4 MiB

void PutU8(std::string* out, uint8_t v);
void PutU16(std::string* out, uint16_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutF64(std::string* out, double v);
void PutString(std::string* out, const std::string& s);

/// Bounded read cursor. Every read checks the bound; a truncated
/// payload surfaces as an IoError, never as an out-of-range memory
/// access (the fuzz-friendly contract).
struct Cursor {
  const char* data;
  size_t size;
  size_t pos = 0;

  size_t remaining() const { return size - pos; }
};

/// The canonical truncation error (`what` names the field).
Status Truncated(const char* what);

Result<uint8_t> GetU8(Cursor* c, const char* what);
Result<uint16_t> GetU16(Cursor* c, const char* what);
Result<uint32_t> GetU32(Cursor* c, const char* what);
Result<uint64_t> GetU64(Cursor* c, const char* what);
Result<int64_t> GetI64(Cursor* c, const char* what);
Result<double> GetF64(Cursor* c, const char* what);
Result<std::string> GetString(Cursor* c, const char* what);

/// Tuple body: f64 timestamp, u16 field count, then tagged values
/// (u8 tag: 0 = int64, 1 = double, 2 = string).
void PutTuple(std::string* out, const Tuple& tuple);
Result<Tuple> GetTuple(Cursor* c);

/// Segment body: i64 key, u64 id, range (f64 lo, f64 hi, u8 openness
/// flags), modeled attributes (name + low-order-first coefficients),
/// and unmodeled constants. The zero polynomial is encoded with
/// coefficient count 0 so IsZero() survives the round trip.
void PutSegment(std::string* out, const Segment& s);
Result<Segment> GetSegment(Cursor* c);

}  // namespace wire
}  // namespace pulse

#endif  // PULSE_WIRE_WIRE_H_
