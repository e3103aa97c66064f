#ifndef PULSE_STORE_RECOVERY_H_
#define PULSE_STORE_RECOVERY_H_

#include <string>
#include <vector>

#include "core/query.h"
#include "core/runtime.h"
#include "shard/sharded_runtime.h"
#include "store/store.h"
#include "util/result.h"

namespace pulse {
namespace store {

/// Runtime restoration (docs/STORAGE.md): reopen the store, replay the
/// consistent log prefix into a fresh runtime — deterministic replay
/// reconstructs join buffers, envelopes, and segmenter state exactly —
/// then verify the replayed output prefix against the checkpoint's
/// canonical hash and suppress the outputs a client already saw.

struct RecoveredHistorical {
  SegmentStore store;
  HistoricalRuntime runtime;
  RecoveryReport report;
  /// Replayed outputs past the delivered watermark: deliver these, then
  /// keep feeding the runtime (unless the checkpoint was `finished`).
  std::vector<Segment> pending_outputs;
  /// The replayed delivered-prefix hash matched the checkpoint — the
  /// byte-identity proof. False with detail when it did not (recovery
  /// then redelivers everything rather than diverge silently).
  bool state_verified = false;
  std::string verify_detail;
};

/// Replays `store_options.dir` into a serial HistoricalRuntime.
/// `options.collect_outputs` is forced on (replay needs the outputs to
/// verify and suppress). When the checkpoint marks a drain point the
/// runtime is Finish()ed, matching the state the original run died in.
Result<RecoveredHistorical> RecoverHistorical(
    const QuerySpec& spec, HistoricalRuntime::Options options,
    StoreOptions store_options);

struct RecoveredSharded {
  SegmentStore store;
  shard::ShardedRuntime runtime;
  RecoveryReport report;
  std::vector<Segment> pending_outputs;
  bool state_verified = false;
  std::string verify_detail;
};

/// Sharded flavor: replays into a ShardedRuntime (key-partitioned
/// ShardPool) and synchronizes with Barrier() — the released prefix is
/// then byte-identical to a serial replay, so the same watermark
/// verification applies.
Result<RecoveredSharded> RecoverSharded(
    const QuerySpec& spec, shard::ShardedRuntimeOptions options,
    StoreOptions store_options);

}  // namespace store
}  // namespace pulse

#endif  // PULSE_STORE_RECOVERY_H_
