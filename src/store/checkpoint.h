#ifndef PULSE_STORE_CHECKPOINT_H_
#define PULSE_STORE_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "util/result.h"

namespace pulse {
namespace store {

/// Runtime checkpoint (docs/STORAGE.md). Join buffers, envelopes, and
/// segmenter state are all rebuildable by deterministic replay of the
/// log, so the checkpoint carries only what replay cannot reconstruct:
/// how much of the log had been applied and which outputs had already
/// been delivered downstream when the checkpoint was taken. Recovery
/// replays the whole consistent log prefix and suppresses the first
/// `delivered_outputs` outputs after verifying their canonical hash.
struct Checkpoint {
  /// Records of the log the checkpoint covers.
  uint64_t log_records = 0;
  /// Consistent log size in bytes at checkpoint time.
  uint64_t log_bytes = 0;
  /// Output segments already delivered downstream.
  uint64_t delivered_outputs = 0;
  /// Canonical FNV-1a hash of the delivered prefix (ids excluded; see
  /// store/recovery.h). kCanonicalHashSeed when nothing was delivered.
  uint64_t output_hash = 0;
  /// True when taken at a drain point: all inputs flushed through
  /// Finish(), outputs final (the serving drain-to-checkpoint path).
  bool finished = false;
};

/// Serialized image: 8-byte magic "PULSECKP", u32 version, u32 payload
/// length, u32 CRC-32C(payload), payload.
std::string EncodeCheckpoint(const Checkpoint& checkpoint);

/// Decodes a checkpoint image; any truncation, magic/version mismatch,
/// or checksum failure is an IoError (never a crash — this is the
/// second decoder the fuzz target drives).
Result<Checkpoint> DecodeCheckpoint(const char* data, size_t n);

/// Atomically replaces the checkpoint at `path`: writes `path`.tmp,
/// fsyncs it, renames over `path`, then fsyncs the directory. A crash
/// at any point leaves either the old or the new checkpoint intact,
/// never a torn mix.
Status WriteCheckpointFile(const std::string& path,
                           const Checkpoint& checkpoint);

/// Reads and decodes `path`. NotFound when no checkpoint exists.
Result<Checkpoint> ReadCheckpointFile(const std::string& path);

}  // namespace store
}  // namespace pulse

#endif  // PULSE_STORE_CHECKPOINT_H_
