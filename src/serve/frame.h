#ifndef PULSE_SERVE_FRAME_H_
#define PULSE_SERVE_FRAME_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/tuple.h"
#include "model/segment.h"
#include "util/result.h"

namespace pulse {
namespace serve {

/// Frame types of the serving wire protocol (docs/SERVING.md documents
/// the full format). Client->server frames carry stream control and
/// data; server->client frames carry outputs, flow control, and errors.
enum class FrameType : uint8_t {
  /// Client->server: protocol handshake. Payload: u32 protocol version.
  kHello = 1,
  /// Client->server: binds a client-chosen stream id to a declared
  /// stream name. Payload: u32 stream_id + string name.
  kOpenStream = 2,
  /// Client->server: one tuple for a bound stream.
  kTuple = 3,
  /// Client->server: a batch of tuples for one bound stream.
  kTupleBatch = 4,
  /// Client->server: one pre-fitted model segment (historical replay
  /// push path; the serving analogue of ProcessSegment).
  kSegment = 5,
  /// Server->client: flow-control notification (pause/resume/drop/shed)
  /// for one stream. Carries the affected item count.
  kFlow = 6,
  /// Server->client: one query output segment.
  kOutputSegment = 7,
  /// Server->client: one sampled query output tuple.
  kOutputTuple = 8,
  /// Client->server: stop accepting input, process everything admitted,
  /// deliver all outputs, then answer with kDrained.
  kDrain = 9,
  /// Server->client: drain complete; every admitted item is reflected
  /// in the delivered outputs.
  kDrained = 10,
  /// Server->client: fatal session error. Payload: string message.
  kError = 11,
  /// Either direction: orderly goodbye; the peer closes the transport.
  kBye = 12,
  /// Server->client: a provisional answer emitted under a widened
  /// precision budget (docs/PRECISION.md). Payload: u64 lineage id,
  /// f64 bound, segment. The answer is advisory until a later kConfirm
  /// or kRetract carries the same lineage id.
  kProvisional = 13,
  /// Server->client: the provisional with this lineage id matched the
  /// exact computation within its bound. Payload: u64 lineage id.
  kConfirm = 14,
  /// Server->client: the provisional with this lineage id deviated (or
  /// the exact computation never produced it). Payload: u64 lineage id,
  /// u8 reason (0 = deviation, 1 = spurious).
  kRetract = 15,
};

const char* FrameTypeToString(FrameType type);

/// Flow-control event kinds carried by kFlow frames.
enum class FlowEvent : uint8_t {
  /// Under kBlock, a data frame did not fit the session queue: the
  /// session stops reading the client until it does. `count` is the
  /// queue's weight at that moment.
  kPaused = 0,
  /// The blocked frame was pushed; the session reads the client again.
  kResumed = 1,
  /// kDropOldest policy evicted `count` queued items to admit new ones.
  kDroppedOldest = 2,
  /// Admission shed `count` arriving items (kShed policy or overload
  /// controller); they were NOT processed.
  kShed = 3,
};

const char* FlowEventToString(FlowEvent event);

/// Current protocol version, carried by kHello.
inline constexpr uint32_t kProtocolVersion = 1;

/// One decoded protocol frame. Which members are meaningful depends on
/// `type`; unused members stay default-constructed.
struct Frame {
  FrameType type = FrameType::kHello;
  /// kOpenStream / kTuple / kTupleBatch / kSegment / kFlow.
  uint32_t stream_id = 0;
  /// kOpenStream: stream name. kError: message.
  std::string text;
  /// kHello: protocol version.
  uint32_t version = kProtocolVersion;
  /// kTuple (size 1) / kTupleBatch / kOutputTuple (size 1).
  std::vector<Tuple> tuples;
  /// kSegment (size 1) / kOutputSegment (size 1).
  std::vector<Segment> segments;
  /// kFlow.
  FlowEvent flow_event = FlowEvent::kPaused;
  uint64_t flow_count = 0;
  /// kProvisional / kConfirm / kRetract: lineage id (> 0).
  uint64_t lineage = 0;
  /// kProvisional: the emitting tier's output bound.
  double bound = 0.0;
  /// kRetract: reason code (core/precision.h RetractReason values).
  uint8_t retract_reason = 0;

  static Frame Hello();
  static Frame OpenStream(uint32_t stream_id, std::string name);
  static Frame OneTuple(uint32_t stream_id, Tuple tuple);
  static Frame TupleBatch(uint32_t stream_id, std::vector<Tuple> tuples);
  static Frame OneSegment(uint32_t stream_id, Segment segment);
  static Frame Flow(uint32_t stream_id, FlowEvent event, uint64_t count);
  static Frame OutputSegment(Segment segment);
  static Frame OutputTuple(Tuple tuple);
  static Frame Drain();
  static Frame Drained();
  static Frame Error(std::string message);
  static Frame Bye();
  static Frame Provisional(uint64_t lineage, double bound, Segment segment);
  static Frame Confirm(uint64_t lineage);
  static Frame Retract(uint64_t lineage, uint8_t reason);
};

/// Appends the length-prefixed wire encoding of `frame` to `out`.
/// Wire format: u32-LE payload length, then the payload
/// (u8 frame type + type-specific body); all integers little-endian,
/// doubles as IEEE-754 bit patterns. See docs/SERVING.md.
void EncodeFrame(const Frame& frame, std::string* out);

/// Convenience: the encoding of one frame as a fresh buffer.
std::string EncodeFrameToString(const Frame& frame);

/// Incremental frame decoder: feed arbitrary byte chunks (as they arrive
/// from a socket), pull complete frames. Decode errors are sticky — a
/// malformed stream cannot be resynchronized, matching TCP semantics.
/// A frame whose declared payload length exceeds wire::kMaxPayloadBytes
/// is rejected before buffering.
class FrameReader {
 public:
  /// Appends received bytes to the internal buffer. Fails when a
  /// previously detected decode error made the stream unusable or the
  /// pending frame exceeds the size limit.
  Status Feed(const char* data, size_t n);
  Status Feed(const std::string& bytes) {
    return Feed(bytes.data(), bytes.size());
  }

  /// Extracts the next complete frame; nullopt when more bytes are
  /// needed. A truncated or malformed payload fails (and poisons the
  /// reader).
  Result<std::optional<Frame>> Next();

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;
  bool poisoned_ = false;
};

}  // namespace serve
}  // namespace pulse

#endif  // PULSE_SERVE_FRAME_H_
