#include "serve/frame.h"

#include <cstring>
#include <utility>

#include "wire/wire.h"

namespace pulse {
namespace serve {

namespace {

// Primitive writers/readers plus the tuple and segment body codecs live
// in wire/wire.h — shared with the durable segment store (src/store/),
// which persists records in the same byte layout the protocol ships.
using wire::Cursor;
using wire::GetF64;
using wire::GetI64;
using wire::GetSegment;
using wire::GetString;
using wire::GetTuple;
using wire::GetU16;
using wire::GetU32;
using wire::GetU64;
using wire::GetU8;
using wire::PutF64;
using wire::PutI64;
using wire::PutSegment;
using wire::PutString;
using wire::PutTuple;
using wire::PutU16;
using wire::PutU32;
using wire::PutU64;
using wire::PutU8;
using wire::Truncated;

Result<Frame> DecodePayload(const char* data, size_t size) {
  Cursor c{data, size};
  PULSE_ASSIGN_OR_RETURN(uint8_t type_byte, GetU8(&c, "frame type"));
  Frame frame;
  switch (static_cast<FrameType>(type_byte)) {
    case FrameType::kHello: {
      frame.type = FrameType::kHello;
      PULSE_ASSIGN_OR_RETURN(frame.version, GetU32(&c, "hello version"));
      break;
    }
    case FrameType::kOpenStream: {
      frame.type = FrameType::kOpenStream;
      PULSE_ASSIGN_OR_RETURN(frame.stream_id, GetU32(&c, "stream id"));
      PULSE_ASSIGN_OR_RETURN(frame.text, GetString(&c, "stream name"));
      break;
    }
    case FrameType::kTuple: {
      frame.type = FrameType::kTuple;
      PULSE_ASSIGN_OR_RETURN(frame.stream_id, GetU32(&c, "stream id"));
      PULSE_ASSIGN_OR_RETURN(Tuple t, GetTuple(&c));
      frame.tuples.push_back(std::move(t));
      break;
    }
    case FrameType::kTupleBatch: {
      frame.type = FrameType::kTupleBatch;
      PULSE_ASSIGN_OR_RETURN(frame.stream_id, GetU32(&c, "stream id"));
      PULSE_ASSIGN_OR_RETURN(uint32_t n, GetU32(&c, "batch size"));
      // Guard: each tuple needs >= 10 payload bytes, so a hostile count
      // cannot force a huge reserve ahead of the truncation check.
      if (static_cast<size_t>(n) * 10 > c.remaining()) {
        return Truncated("tuple batch");
      }
      frame.tuples.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        PULSE_ASSIGN_OR_RETURN(Tuple t, GetTuple(&c));
        frame.tuples.push_back(std::move(t));
      }
      break;
    }
    case FrameType::kSegment: {
      frame.type = FrameType::kSegment;
      PULSE_ASSIGN_OR_RETURN(frame.stream_id, GetU32(&c, "stream id"));
      PULSE_ASSIGN_OR_RETURN(Segment s, GetSegment(&c));
      frame.segments.push_back(std::move(s));
      break;
    }
    case FrameType::kFlow: {
      frame.type = FrameType::kFlow;
      PULSE_ASSIGN_OR_RETURN(frame.stream_id, GetU32(&c, "stream id"));
      PULSE_ASSIGN_OR_RETURN(uint8_t event, GetU8(&c, "flow event"));
      if (event > static_cast<uint8_t>(FlowEvent::kShed)) {
        return Status::IoError("unknown flow event " +
                                std::to_string(event));
      }
      frame.flow_event = static_cast<FlowEvent>(event);
      PULSE_ASSIGN_OR_RETURN(frame.flow_count, GetU64(&c, "flow count"));
      break;
    }
    case FrameType::kOutputSegment: {
      frame.type = FrameType::kOutputSegment;
      PULSE_ASSIGN_OR_RETURN(Segment s, GetSegment(&c));
      frame.segments.push_back(std::move(s));
      break;
    }
    case FrameType::kOutputTuple: {
      frame.type = FrameType::kOutputTuple;
      PULSE_ASSIGN_OR_RETURN(Tuple t, GetTuple(&c));
      frame.tuples.push_back(std::move(t));
      break;
    }
    case FrameType::kDrain:
      frame.type = FrameType::kDrain;
      break;
    case FrameType::kDrained:
      frame.type = FrameType::kDrained;
      break;
    case FrameType::kError: {
      frame.type = FrameType::kError;
      PULSE_ASSIGN_OR_RETURN(frame.text, GetString(&c, "error message"));
      break;
    }
    case FrameType::kBye:
      frame.type = FrameType::kBye;
      break;
    case FrameType::kProvisional: {
      frame.type = FrameType::kProvisional;
      PULSE_ASSIGN_OR_RETURN(frame.lineage, GetU64(&c, "lineage id"));
      PULSE_ASSIGN_OR_RETURN(frame.bound, GetF64(&c, "provisional bound"));
      PULSE_ASSIGN_OR_RETURN(Segment s, GetSegment(&c));
      frame.segments.push_back(std::move(s));
      break;
    }
    case FrameType::kConfirm: {
      frame.type = FrameType::kConfirm;
      PULSE_ASSIGN_OR_RETURN(frame.lineage, GetU64(&c, "lineage id"));
      break;
    }
    case FrameType::kRetract: {
      frame.type = FrameType::kRetract;
      PULSE_ASSIGN_OR_RETURN(frame.lineage, GetU64(&c, "lineage id"));
      PULSE_ASSIGN_OR_RETURN(frame.retract_reason,
                             GetU8(&c, "retract reason"));
      if (frame.retract_reason > 1) {
        return Status::IoError(
            "unknown retract reason " +
            std::to_string(frame.retract_reason));
      }
      break;
    }
    default:
      return Status::IoError("unknown frame type " +
                              std::to_string(type_byte));
  }
  if (c.pos != c.size) {
    return Status::IoError(
        "frame payload has " + std::to_string(c.size - c.pos) +
        " trailing byte(s) after " +
        FrameTypeToString(static_cast<FrameType>(type_byte)));
  }
  return frame;
}

}  // namespace

const char* FrameTypeToString(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "Hello";
    case FrameType::kOpenStream:
      return "OpenStream";
    case FrameType::kTuple:
      return "Tuple";
    case FrameType::kTupleBatch:
      return "TupleBatch";
    case FrameType::kSegment:
      return "Segment";
    case FrameType::kFlow:
      return "Flow";
    case FrameType::kOutputSegment:
      return "OutputSegment";
    case FrameType::kOutputTuple:
      return "OutputTuple";
    case FrameType::kDrain:
      return "Drain";
    case FrameType::kDrained:
      return "Drained";
    case FrameType::kError:
      return "Error";
    case FrameType::kBye:
      return "Bye";
    case FrameType::kProvisional:
      return "Provisional";
    case FrameType::kConfirm:
      return "Confirm";
    case FrameType::kRetract:
      return "Retract";
  }
  return "Unknown";
}

const char* FlowEventToString(FlowEvent event) {
  switch (event) {
    case FlowEvent::kPaused:
      return "Paused";
    case FlowEvent::kResumed:
      return "Resumed";
    case FlowEvent::kDroppedOldest:
      return "DroppedOldest";
    case FlowEvent::kShed:
      return "Shed";
  }
  return "Unknown";
}

Frame Frame::Hello() {
  Frame f;
  f.type = FrameType::kHello;
  return f;
}

Frame Frame::OpenStream(uint32_t stream_id, std::string name) {
  Frame f;
  f.type = FrameType::kOpenStream;
  f.stream_id = stream_id;
  f.text = std::move(name);
  return f;
}

Frame Frame::OneTuple(uint32_t stream_id, Tuple tuple) {
  Frame f;
  f.type = FrameType::kTuple;
  f.stream_id = stream_id;
  f.tuples.push_back(std::move(tuple));
  return f;
}

Frame Frame::TupleBatch(uint32_t stream_id, std::vector<Tuple> tuples) {
  Frame f;
  f.type = FrameType::kTupleBatch;
  f.stream_id = stream_id;
  f.tuples = std::move(tuples);
  return f;
}

Frame Frame::OneSegment(uint32_t stream_id, Segment segment) {
  Frame f;
  f.type = FrameType::kSegment;
  f.stream_id = stream_id;
  f.segments.push_back(std::move(segment));
  return f;
}

Frame Frame::Flow(uint32_t stream_id, FlowEvent event, uint64_t count) {
  Frame f;
  f.type = FrameType::kFlow;
  f.stream_id = stream_id;
  f.flow_event = event;
  f.flow_count = count;
  return f;
}

Frame Frame::OutputSegment(Segment segment) {
  Frame f;
  f.type = FrameType::kOutputSegment;
  f.segments.push_back(std::move(segment));
  return f;
}

Frame Frame::OutputTuple(Tuple tuple) {
  Frame f;
  f.type = FrameType::kOutputTuple;
  f.tuples.push_back(std::move(tuple));
  return f;
}

Frame Frame::Drain() {
  Frame f;
  f.type = FrameType::kDrain;
  return f;
}

Frame Frame::Drained() {
  Frame f;
  f.type = FrameType::kDrained;
  return f;
}

Frame Frame::Error(std::string message) {
  Frame f;
  f.type = FrameType::kError;
  f.text = std::move(message);
  return f;
}

Frame Frame::Bye() {
  Frame f;
  f.type = FrameType::kBye;
  return f;
}

Frame Frame::Provisional(uint64_t lineage, double bound, Segment segment) {
  Frame f;
  f.type = FrameType::kProvisional;
  f.lineage = lineage;
  f.bound = bound;
  f.segments.push_back(std::move(segment));
  return f;
}

Frame Frame::Confirm(uint64_t lineage) {
  Frame f;
  f.type = FrameType::kConfirm;
  f.lineage = lineage;
  return f;
}

Frame Frame::Retract(uint64_t lineage, uint8_t reason) {
  Frame f;
  f.type = FrameType::kRetract;
  f.lineage = lineage;
  f.retract_reason = reason;
  return f;
}

void EncodeFrame(const Frame& frame, std::string* out) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(frame.type));
  switch (frame.type) {
    case FrameType::kHello:
      PutU32(&payload, frame.version);
      break;
    case FrameType::kOpenStream:
      PutU32(&payload, frame.stream_id);
      PutString(&payload, frame.text);
      break;
    case FrameType::kTuple:
      PutU32(&payload, frame.stream_id);
      PutTuple(&payload, frame.tuples.at(0));
      break;
    case FrameType::kTupleBatch:
      PutU32(&payload, frame.stream_id);
      PutU32(&payload, static_cast<uint32_t>(frame.tuples.size()));
      for (const Tuple& t : frame.tuples) PutTuple(&payload, t);
      break;
    case FrameType::kSegment:
      PutU32(&payload, frame.stream_id);
      PutSegment(&payload, frame.segments.at(0));
      break;
    case FrameType::kFlow:
      PutU32(&payload, frame.stream_id);
      PutU8(&payload, static_cast<uint8_t>(frame.flow_event));
      PutU64(&payload, frame.flow_count);
      break;
    case FrameType::kOutputSegment:
      PutSegment(&payload, frame.segments.at(0));
      break;
    case FrameType::kOutputTuple:
      PutTuple(&payload, frame.tuples.at(0));
      break;
    case FrameType::kDrain:
    case FrameType::kDrained:
    case FrameType::kBye:
      break;
    case FrameType::kError:
      PutString(&payload, frame.text);
      break;
    case FrameType::kProvisional:
      PutU64(&payload, frame.lineage);
      PutF64(&payload, frame.bound);
      // A hand-built provisional with no segment encodes an empty one
      // rather than throwing out_of_range from inside the encoder.
      PutSegment(&payload,
                 frame.segments.empty() ? Segment() : frame.segments[0]);
      break;
    case FrameType::kConfirm:
      PutU64(&payload, frame.lineage);
      break;
    case FrameType::kRetract:
      PutU64(&payload, frame.lineage);
      PutU8(&payload, frame.retract_reason);
      break;
  }
  PutU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

std::string EncodeFrameToString(const Frame& frame) {
  std::string out;
  EncodeFrame(frame, &out);
  return out;
}

Status FrameReader::Feed(const char* data, size_t n) {
  if (poisoned_) {
    return Status::FailedPrecondition(
        "frame stream previously failed to decode");
  }
  buffer_.append(data, n);
  return Status::OK();
}

Result<std::optional<Frame>> FrameReader::Next() {
  if (poisoned_) {
    return Status::FailedPrecondition(
        "frame stream previously failed to decode");
  }
  // Reclaim consumed prefix once it dominates the buffer.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  const size_t available = buffer_.size() - consumed_;
  if (available < 4) return std::optional<Frame>{};
  Cursor c{buffer_.data() + consumed_, available};
  uint32_t len = *GetU32(&c, "length prefix");
  if (len > wire::kMaxPayloadBytes) {
    poisoned_ = true;
    return Status::IoError(
        "frame length " + std::to_string(len) + " exceeds limit " +
        std::to_string(wire::kMaxPayloadBytes));
  }
  if (available - 4 < len) return std::optional<Frame>{};
  Result<Frame> frame = DecodePayload(buffer_.data() + consumed_ + 4, len);
  if (!frame.ok()) {
    poisoned_ = true;
    return frame.status();
  }
  consumed_ += 4 + len;
  return std::optional<Frame>(std::move(*frame));
}

}  // namespace serve
}  // namespace pulse
