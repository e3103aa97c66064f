#include "store/log.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "wire/wire.h"
#include "store/checksum.h"

namespace pulse {
namespace store {

namespace {

constexpr char kLogMagic[8] = {'P', 'U', 'L', 'S', 'E', 'L', 'O', 'G'};
constexpr uint32_t kLogVersion = 1;
constexpr size_t kHeaderBytes = sizeof(kLogMagic) + 4;
constexpr size_t kRecordFrameBytes = 8;  // u32 length + u32 crc

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

const char* LogTailStateToString(LogTailState state) {
  switch (state) {
    case LogTailState::kClean:
      return "clean";
    case LogTailState::kBadHeader:
      return "bad-header";
    case LogTailState::kTornRecord:
      return "torn-record";
    case LogTailState::kBadChecksum:
      return "bad-checksum";
    case LogTailState::kBadPayload:
      return "bad-payload";
  }
  return "unknown";
}

std::string EncodeLogHeader() {
  std::string out(kLogMagic, sizeof(kLogMagic));
  wire::PutU32(&out, kLogVersion);
  return out;
}

void EncodeLogRecord(const LogRecord& record, std::string* out) {
  std::string payload;
  wire::PutU8(&payload, static_cast<uint8_t>(record.type));
  wire::PutString(&payload, record.stream);
  if (record.type == LogRecordType::kTuple) {
    wire::PutTuple(&payload, record.tuple);
  } else {
    wire::PutSegment(&payload, record.segment);
  }
  wire::PutU32(out, static_cast<uint32_t>(payload.size()));
  wire::PutU32(out, Crc32c(payload));
  out->append(payload);
}

Result<LogRecord> DecodeLogPayload(const char* data, size_t n) {
  wire::Cursor c{data, n};
  PULSE_ASSIGN_OR_RETURN(uint8_t type, wire::GetU8(&c, "record type"));
  LogRecord record;
  switch (static_cast<LogRecordType>(type)) {
    case LogRecordType::kSegment:
    case LogRecordType::kTuple:
    case LogRecordType::kBackfill:
      record.type = static_cast<LogRecordType>(type);
      break;
    default:
      return Status::IoError("unknown log record type " +
                             std::to_string(type));
  }
  PULSE_ASSIGN_OR_RETURN(record.stream, wire::GetString(&c, "stream name"));
  if (record.type == LogRecordType::kTuple) {
    PULSE_ASSIGN_OR_RETURN(record.tuple, wire::GetTuple(&c));
  } else {
    PULSE_ASSIGN_OR_RETURN(record.segment, wire::GetSegment(&c));
  }
  if (c.pos != c.size) {
    return Status::IoError("log record payload has " +
                           std::to_string(c.size - c.pos) +
                           " trailing byte(s)");
  }
  return record;
}

LogScan ScanLog(const char* data, size_t n) {
  LogScan scan;
  scan.scanned_bytes = n;
  if (n < kHeaderBytes ||
      std::memcmp(data, kLogMagic, sizeof(kLogMagic)) != 0) {
    scan.tail = LogTailState::kBadHeader;
    scan.detail = n < kHeaderBytes ? "log shorter than file header"
                                   : "log magic mismatch";
    return scan;
  }
  {
    wire::Cursor c{data + sizeof(kLogMagic), 4};
    uint32_t version = *wire::GetU32(&c, "log version");
    if (version != kLogVersion) {
      scan.tail = LogTailState::kBadHeader;
      scan.detail = "unsupported log version " + std::to_string(version);
      return scan;
    }
  }
  size_t pos = kHeaderBytes;
  scan.consistent_bytes = pos;
  while (pos < n) {
    if (n - pos < kRecordFrameBytes) {
      scan.tail = LogTailState::kTornRecord;
      scan.detail = "trailing " + std::to_string(n - pos) +
                    " byte(s) shorter than a record frame";
      return scan;
    }
    wire::Cursor c{data + pos, kRecordFrameBytes};
    const uint32_t len = *wire::GetU32(&c, "record length");
    const uint32_t stored_crc = *wire::GetU32(&c, "record crc");
    if (len > wire::kMaxPayloadBytes) {
      // Indistinguishable from a garbage length prefix: treat as torn.
      scan.tail = LogTailState::kTornRecord;
      scan.detail = "record length " + std::to_string(len) +
                    " exceeds limit " +
                    std::to_string(wire::kMaxPayloadBytes);
      return scan;
    }
    if (n - pos - kRecordFrameBytes < len) {
      scan.tail = LogTailState::kTornRecord;
      scan.detail = "record needs " + std::to_string(len) +
                    " payload byte(s), only " +
                    std::to_string(n - pos - kRecordFrameBytes) + " present";
      return scan;
    }
    const char* payload = data + pos + kRecordFrameBytes;
    const uint32_t actual_crc = Crc32c(payload, len);
    if (actual_crc != stored_crc) {
      scan.tail = LogTailState::kBadChecksum;
      scan.detail = "record " + std::to_string(scan.records.size()) +
                    " checksum mismatch";
      return scan;
    }
    Result<LogRecord> record = DecodeLogPayload(payload, len);
    if (!record.ok()) {
      scan.tail = LogTailState::kBadPayload;
      scan.detail = "record " + std::to_string(scan.records.size()) + ": " +
                    record.status().message();
      return scan;
    }
    scan.records.push_back(std::move(*record));
    pos += kRecordFrameBytes + len;
    scan.consistent_bytes = pos;
  }
  return scan;
}

Result<LogScan> ScanLogFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) {
      return Status::NotFound("log file '" + path + "' does not exist");
    }
    return Errno("open log file", path);
  }
  std::string contents;
  char buf[64 * 1024];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Errno("read log file", path);
  return ScanLog(contents.data(), contents.size());
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Errno("truncate", path);
  }
  return Status::OK();
}

Result<SegmentLogWriter> SegmentLogWriter::Open(const std::string& path) {
  SegmentLogWriter writer;
  writer.path_ = path;
  struct ::stat st;
  const bool exists = ::stat(path.c_str(), &st) == 0 && st.st_size > 0;
  std::FILE* f = std::fopen(path.c_str(), exists ? "ab" : "wb");
  if (f == nullptr) return Errno("open log for append", path);
  writer.file_.reset(f);
  if (exists) {
    writer.size_ = static_cast<uint64_t>(st.st_size);
  } else {
    const std::string header = EncodeLogHeader();
    if (std::fwrite(header.data(), 1, header.size(), f) != header.size()) {
      return Errno("write log header", path);
    }
    writer.size_ = header.size();
  }
  return writer;
}

Status SegmentLogWriter::Append(std::string_view framed) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("log writer is closed");
  }
  if (std::fwrite(framed.data(), 1, framed.size(), file_.get()) !=
      framed.size()) {
    return Errno("append log record", path_);
  }
  size_ += framed.size();
  return Status::OK();
}

Status SegmentLogWriter::Sync() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("log writer is closed");
  }
  if (std::fflush(file_.get()) != 0) return Errno("flush log", path_);
  if (::fsync(::fileno(file_.get())) != 0) return Errno("fsync log", path_);
  return Status::OK();
}

}  // namespace store
}  // namespace pulse
