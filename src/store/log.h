#ifndef PULSE_STORE_LOG_H_
#define PULSE_STORE_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/tuple.h"
#include "model/segment.h"
#include "util/result.h"

namespace pulse {
namespace store {

/// Append-only segment log (docs/STORAGE.md). On-disk layout:
///
///   header:  8-byte magic "PULSELOG", u32 version (little-endian)
///   record:  u32 payload length | u32 CRC-32C(payload) | payload
///   payload: u8 record type, string stream name, body
///
/// Bodies reuse the serving wire codec (wire/wire.h), so a persisted
/// segment is byte-identical to one shipped over a socket. The log is
/// the system of record: everything else in the store (segment trees,
/// timelines, runtime state) is rebuilt from it on recovery.

enum class LogRecordType : uint8_t {
  /// A fitted input segment admitted on `stream`.
  kSegment = 1,
  /// A raw input tuple admitted on `stream` (segmented again on replay).
  kTuple = 2,
  /// A late-arriving correction: patches already-closed time on replay
  /// of the store's historical view (not fed to live runtimes).
  kBackfill = 3,
};

struct LogRecord {
  LogRecordType type = LogRecordType::kSegment;
  std::string stream;
  Segment segment;  // kSegment / kBackfill
  Tuple tuple;      // kTuple
};

/// Why a scan stopped before the end of the buffer. Everything after
/// the reported consistent prefix is a torn tail: recovery truncates
/// it and resumes appending from there.
enum class LogTailState : uint8_t {
  kClean = 0,        // scanned to the end, every record intact
  kBadHeader = 1,    // magic/version mismatch or file shorter than header
  kTornRecord = 2,   // trailing bytes shorter than the framed record
  kBadChecksum = 3,  // stored CRC does not match the payload
  kBadPayload = 4,   // CRC intact but the payload fails to decode
};

const char* LogTailStateToString(LogTailState state);

struct LogScan {
  std::vector<LogRecord> records;
  /// Header plus every intact record — the recovery truncation point.
  uint64_t consistent_bytes = 0;
  /// Total bytes scanned (the file/buffer size).
  uint64_t scanned_bytes = 0;
  LogTailState tail = LogTailState::kClean;
  /// Human-readable diagnosis of the tail (empty when clean).
  std::string detail;

  bool clean() const { return tail == LogTailState::kClean; }
};

/// The 12-byte file header.
std::string EncodeLogHeader();

/// Appends one framed record (length | crc | payload) to `out`.
void EncodeLogRecord(const LogRecord& record, std::string* out);

/// Decodes one record payload (the bytes the CRC covers).
Result<LogRecord> DecodeLogPayload(const char* data, size_t n);

/// Scans a whole log image. Never fails: corruption is reported via
/// `tail`/`detail` and the scan stops at the last consistent prefix.
/// This is the function the fuzz target drives with adversarial bytes.
LogScan ScanLog(const char* data, size_t n);

/// Reads and scans a log file. NotFound when the file does not exist.
Result<LogScan> ScanLogFile(const std::string& path);

/// Truncates `path` to exactly `size` bytes (the torn-tail repair).
Status TruncateFile(const std::string& path, uint64_t size);

/// Appender. Creates the file (writing the header) or opens an
/// existing one for append; when appending, the caller must already
/// have truncated the file to a consistent prefix (recovery does).
class SegmentLogWriter {
 public:
  /// A closed writer (every operation fails); Open() builds live ones.
  SegmentLogWriter() = default;

  static Result<SegmentLogWriter> Open(const std::string& path);

  SegmentLogWriter(SegmentLogWriter&&) = default;
  SegmentLogWriter& operator=(SegmentLogWriter&&) = default;

  /// Appends one framed record image: EncodeLogRecord's output, so a
  /// caller can encode outside its own lock.
  Status Append(std::string_view framed);

  /// Flushes buffered writes and fsyncs to the device.
  Status Sync();

  uint64_t size_bytes() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f != nullptr) std::fclose(f);
    }
  };

  std::unique_ptr<std::FILE, FileCloser> file_;
  std::string path_;
  uint64_t size_ = 0;
};

}  // namespace store
}  // namespace pulse

#endif  // PULSE_STORE_LOG_H_
