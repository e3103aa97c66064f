// Fuzz target: the segment-log scanner and checkpoint decoder
// (docs/STORAGE.md) over adversarial bytes — the exact bytes a crashed
// or bit-rotted disk could hand recovery.
//
// Invariants exercised:
//  - ScanLog never crashes and never reports a consistent prefix longer
//    than the input (or shorter than the file header when it parsed
//    records).
//  - Scanning is idempotent: re-encoding the records ScanLog accepted
//    and rescanning yields a clean log with the same record count — the
//    truncate-to-consistent-prefix repair cannot lose or invent records.
//  - DecodeCheckpoint never crashes; a successful decode re-encodes to
//    an image that decodes to the same watermark.
//
// Structure-aware modes (first byte):
//  - 0xFE: the remaining bytes parameterize a syntactically valid log
//    (header + records) with one optional mutation, reaching the CRC
//    and payload-decode branches that raw bytes almost never hit.
//  - 0xFD: remaining bytes are wrapped in a checkpoint header so the
//    payload decoder (not just the magic check) is exercised.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "store/checkpoint.h"
#include "store/log.h"

#include "fuzz_util.h"

namespace {

using pulse::Interval;
using pulse::Polynomial;
using pulse::Result;
using pulse::Segment;
using pulse::Tuple;
using pulse::Value;
using pulse::store::Checkpoint;
using pulse::store::DecodeCheckpoint;
using pulse::store::EncodeCheckpoint;
using pulse::store::EncodeLogHeader;
using pulse::store::EncodeLogRecord;
using pulse::store::LogRecord;
using pulse::store::LogRecordType;
using pulse::store::LogScan;
using pulse::store::LogTailState;
using pulse::store::ScanLog;

void CheckScanInvariants(const std::string& image, const LogScan& scan) {
  if (scan.consistent_bytes > image.size()) std::abort();
  if (scan.scanned_bytes != image.size()) std::abort();
  if (!scan.records.empty() &&
      scan.consistent_bytes < EncodeLogHeader().size()) {
    std::abort();
  }
  if (scan.clean() && scan.consistent_bytes != image.size() &&
      scan.tail == LogTailState::kClean && !scan.records.empty()) {
    std::abort();
  }
  // Idempotence: the accepted prefix re-encodes to a clean log with the
  // same records (the recovery repair loses nothing it accepted).
  std::string repaired = EncodeLogHeader();
  for (const LogRecord& record : scan.records) {
    EncodeLogRecord(record, &repaired);
  }
  LogScan rescan = ScanLog(repaired.data(), repaired.size());
  if (!rescan.clean()) std::abort();
  if (rescan.records.size() != scan.records.size()) std::abort();
}

void DriveScan(const std::string& image) {
  LogScan scan = ScanLog(image.data(), image.size());
  CheckScanInvariants(image, scan);
}

void DriveCheckpoint(const std::string& image) {
  Result<Checkpoint> decoded = DecodeCheckpoint(image.data(), image.size());
  if (!decoded.ok()) return;
  const std::string reencoded = EncodeCheckpoint(*decoded);
  Result<Checkpoint> again =
      DecodeCheckpoint(reencoded.data(), reencoded.size());
  if (!again.ok()) std::abort();
  if (again->log_records != decoded->log_records ||
      again->log_bytes != decoded->log_bytes ||
      again->delivered_outputs != decoded->delivered_outputs ||
      again->output_hash != decoded->output_hash ||
      again->finished != decoded->finished) {
    std::abort();
  }
}

// Builds a well-formed log whose shape (record count, types, attribute
// counts) comes from the fuzz input, then optionally flips one byte.
std::string StructuredLog(pulse::fuzz::FuzzInput& in) {
  std::string image = EncodeLogHeader();
  const uint32_t n = in.TakeBelow(6);
  for (uint32_t i = 0; i < n; ++i) {
    LogRecord record;
    // Move-assigned from a std::string: GCC 12 at -O3 flags assigning a
    // literal to an empty string here with a spurious -Wrestrict.
    record.stream = std::string(i % 2 == 0 ? "s" : "t");
    switch (in.TakeBelow(3)) {
      case 0: {
        record.type = LogRecordType::kTuple;
        record.tuple = Tuple(in.TakeDouble(1e6),
                             {Value(static_cast<int64_t>(in.TakeU32())),
                              Value(in.TakeDouble(1e3))});
        break;
      }
      default: {
        record.type = in.TakeByte() % 2 == 0 ? LogRecordType::kSegment
                                             : LogRecordType::kBackfill;
        Segment seg(static_cast<pulse::Key>(in.TakeBelow(16)),
                    Interval::ClosedOpen(in.TakeDouble(1e3),
                                         in.TakeDouble(1e3)));
        const uint32_t attrs = in.TakeBelow(3);
        for (uint32_t a = 0; a < attrs; ++a) {
          std::string name = "a";  // by append, for the same reason
          name += std::to_string(a);
          seg.attributes[name] =
              Polynomial({in.TakeDouble(1e3), in.TakeDouble(10.0)});
        }
        if (in.TakeByte() % 2 == 0) seg.unmodeled["u"] = in.TakeDouble(1.0);
        record.segment = std::move(seg);
        break;
      }
    }
    EncodeLogRecord(record, &image);
  }
  // One optional byte mutation: exercises torn/bad-checksum/bad-payload
  // classification on otherwise-valid images.
  if (!image.empty() && in.TakeByte() % 2 == 0) {
    const size_t pos = in.TakeBelow(static_cast<uint32_t>(image.size()));
    image[pos] = static_cast<char>(image[pos] ^ (1u << in.TakeBelow(8)));
  }
  // Optional truncation: the torn-tail path.
  if (in.TakeByte() % 2 == 0) {
    image.resize(in.TakeBelow(static_cast<uint32_t>(image.size()) + 1));
  }
  return image;
}

std::string CheckpointWrapped(pulse::fuzz::FuzzInput& in) {
  // Magic + version, then attacker bytes as the framed payload.
  Checkpoint ckp;
  ckp.log_records = in.TakeU32();
  std::string valid = EncodeCheckpoint(ckp);
  std::string image = valid.substr(0, 12);  // magic + version
  std::string payload = in.TakeRemainingString();
  image += payload;
  return image;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  pulse::fuzz::FuzzInput in(data, size);
  if (size > 0 && data[0] == 0xFE) {
    in.TakeByte();
    const std::string image = StructuredLog(in);
    DriveScan(image);
    return 0;
  }
  if (size > 0 && data[0] == 0xFD) {
    in.TakeByte();
    const std::string image = CheckpointWrapped(in);
    DriveCheckpoint(image);
    return 0;
  }
  // Raw mode: the same bytes thrown at both decoders.
  const std::string image(reinterpret_cast<const char*>(data), size);
  DriveScan(image);
  DriveCheckpoint(image);
  return 0;
}
