#ifndef PULSE_SHARD_SHARDED_RUNTIME_H_
#define PULSE_SHARD_SHARDED_RUNTIME_H_

#include <memory>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/runtime.h"
#include "obs/metrics.h"
#include "shard/shard_pool.h"
#include "util/result.h"

namespace pulse {
namespace shard {

/// A sharded runtime is a private pool with one client, so it takes the
/// pool's options unchanged.
using ShardedRuntimeOptions = ShardPoolOptions;

/// Single-client convenience over ShardPool with the HistoricalRuntime
/// API: the differential oracle drives serial and sharded replays
/// through the same call shape and requires byte-identical outputs
/// (docs/SHARDING.md). All calls from one thread.
class ShardedRuntime {
 public:
  static Result<ShardedRuntime> Make(const QuerySpec& spec,
                                     ShardedRuntimeOptions options);

  ShardedRuntime(ShardedRuntime&&) = default;
  ShardedRuntime& operator=(ShardedRuntime&&) = default;

  Status ProcessTuple(const std::string& stream, const Tuple& tuple) {
    return client_->ProcessTuple(stream, tuple);
  }
  Status ProcessTuples(const std::string& stream, const Tuple* tuples,
                       size_t n) {
    return client_->ProcessTuples(stream, tuples, n);
  }
  Status ProcessSegment(const std::string& stream, Segment segment) {
    return client_->ProcessSegment(stream, std::move(segment));
  }

  /// Blocks until every shard has flushed; afterwards
  /// TakeOutputSegments holds the complete, canonically merged output.
  Status Finish() { return client_->Finish(); }

  /// Mid-run barrier (see ShardClient::Barrier): waits for everything
  /// routed so far without ending input; afterwards TakeOutputSegments
  /// holds the deterministic prefix for exactly those items.
  Status Barrier() { return client_->Barrier(); }

  std::vector<Segment> TakeOutputSegments() {
    return client_->TakeOutputSegments();
  }

  /// The runtime/* counters summed over the per-shard registries.
  RuntimeStats stats() const;

  /// The shard registries' series and rollups (ShardPool::Snapshot).
  obs::MetricsSnapshot Snapshot() const { return pool_->Snapshot(); }

  size_t num_shards() const { return pool_->num_shards(); }
  bool partitionable() const { return pool_->partition().partitionable; }
  const ShardPool& pool() const { return *pool_; }

 private:
  ShardedRuntime() = default;

  // Destruction order matters: client before pool.
  std::unique_ptr<ShardPool> pool_;
  std::unique_ptr<ShardClient> client_;
};

}  // namespace shard
}  // namespace pulse

#endif  // PULSE_SHARD_SHARDED_RUNTIME_H_
