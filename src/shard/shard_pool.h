#ifndef PULSE_SHARD_SHARD_POOL_H_
#define PULSE_SHARD_SHARD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/query.h"
#include "core/runtime.h"
#include "obs/metrics.h"
#include "shard/exchange.h"
#include "shard/shard_router.h"
#include "util/result.h"
#include "util/work_signal.h"

namespace pulse {
namespace shard {

class ShardClient;

/// Client bookkeeping shared between its router thread and the shard
/// workers (docs/SHARDING.md, "The exchange protocol"). Runtimes are
/// indexed by shard and only ever touched by that shard's worker;
/// everything ordered lives under `mu`. Exchange records hold it by
/// shared_ptr, so it outlives its ShardClient while work is in flight.
struct ClientState {
  /// One call's completion, filled part by part: the outputs its parts
  /// produced and, for a call split over several shards, the position
  /// (in the call) of the tuple behind each output.
  struct PendingCall {
    uint32_t parts = 0;  // 0 until the call's first part arrives
    uint32_t arrived = 0;
    std::vector<Segment> outputs;
    std::vector<uint32_t> positions;  // parallel to outputs; parts > 1
  };

  uint64_t id = 0;
  std::atomic<bool> aborted{false};
  /// Set once `error` is (under `mu`), so routing checks it unlocked.
  std::atomic<bool> failed{false};

  std::mutex mu;
  std::condition_variable cv;
  /// Calls not yet released: pending[i] is call `released_seq + i`.
  std::deque<PendingCall> pending;
  /// Next call seq to release (all calls below are in `ready`).
  uint64_t released_seq = 0;
  /// In-order output prefix (the deterministic merge result).
  std::vector<Segment> ready;
  /// Notified when `ready` goes from empty to non-empty; not owned,
  /// may be null (see ShardClient::SetReleaseSignal).
  WorkSignal* release_signal = nullptr;
  /// Shards that have not yet acknowledged the finish sentinel.
  size_t finish_remaining = 0;
  /// Finish-phase outputs per shard, merged canonically by Finish().
  std::vector<std::vector<Segment>> finish_outputs;
  std::string error;

  /// Only the owning shard worker touches runtimes[s]; the vector
  /// itself is immutable after AddClient publishes the state.
  std::vector<std::unique_ptr<HistoricalRuntime>> runtimes;
};

struct ShardPoolOptions {
  /// Worker shards; clamped to at least 1. The shard-per-core shape is
  /// num_shards == hardware_concurrency.
  size_t num_shards = 1;
  /// Template for every client runtime the pool creates. `metrics` is
  /// overridden per shard.
  HistoricalRuntime::Options runtime;
};

/// Key-partitioned shard-per-core engine (docs/SHARDING.md): N worker
/// threads, each owning one shard — a MetricsRegistry and, per client,
/// a HistoricalRuntime holding exactly the keys the ShardRouter maps to
/// that shard. Producers (ShardClient routers) send one ExchangeRecord
/// per (call, shard) over an ExchangeQueue per shard, bounded at
/// kExchangeCapacity tuples; workers never block on output, so a full
/// exchange queue surfaces as producer backpressure, never deadlock.
///
/// Determinism contract: for a partitionable plan (AnalyzePartition-
/// ability), a client's output is byte-identical for every num_shards,
/// including 1 — the call-sequence and position merge in ShardClient
/// restores the exact serial data-phase order, and the canonical
/// finish-phase key sort (RuntimeCore::SortFinishTail) makes the finish
/// tail shard-count-invariant. Non-partitionable plans route every key to
/// shard 0 and are trivially identical.
class ShardPool {
 public:
  static Result<std::unique_ptr<ShardPool>> Make(const QuerySpec& spec,
                                                 ShardPoolOptions options);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Registers a new client: builds its per-shard runtimes (sharing the
  /// shard's registry) and returns the routing handle. Every
  /// client must be destroyed before the pool.
  Result<std::unique_ptr<ShardClient>> AddClient();

  /// Closes the exchange queues, lets workers drain what was already
  /// queued, and joins them. Idempotent; called by the destructor.
  void Shutdown();

  size_t num_shards() const { return shards_.size(); }
  const PartitionAnalysis& partition() const { return partition_; }
  const ShardRouter& router() const { return router_; }

  /// Shard `i`'s own registry (every client runtime on that shard
  /// reports here, so its runtime/* counters sum over all clients).
  obs::MetricsRegistry* shard_metrics(size_t i) const;

  /// Reads the live shard registries: every shard-`i` metric under
  /// `shard/<i>/<name>`, plus the cross-shard sums (MetricsRegistry::
  /// Rollup) under the plain names. Nothing is copied between
  /// registries; each call reads the counts as they are at that moment.
  obs::MetricsSnapshot Snapshot() const;

 private:
  friend class ShardClient;

  struct Shard {
    std::unique_ptr<ExchangeQueue> queue;
    std::unique_ptr<obs::MetricsRegistry> registry;
    /// shard/exchange/{records,tuples} in `registry`, bound once.
    obs::Counter* c_records = nullptr;
    obs::Counter* c_tuples = nullptr;
    /// Worker-only scratch each record's tuples are rebuilt into.
    Tuple tuple;
    std::thread worker;
  };

  ShardPool() = default;

  void WorkerLoop(size_t shard_index);
  void Dispatch(size_t shard_index, ExchangeRecord record);
  /// Files one part of call `call_seq` and appends every call that is
  /// now whole, in call-seq order, to `ready`. `positions` is parallel
  /// to `outputs` when `parts > 1`, empty otherwise. Caller holds
  /// `state->mu`.
  static void CompletePartLocked(ClientState* state, uint64_t call_seq,
                                 uint32_t parts, std::vector<Segment> outputs,
                                 std::vector<uint32_t> positions);

  QuerySpec spec_;
  ShardPoolOptions options_;
  ShardRouter router_{1};
  PartitionAnalysis partition_;
  /// Sorted stream table: names (index == ExchangeRecord::stream) and the
  /// tuple field holding each stream's key.
  std::vector<std::string> stream_names_;
  std::vector<size_t> stream_key_index_;

  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> next_client_id_{1};
  std::atomic<bool> shutdown_{false};
};

/// One producer's handle onto the pool: splits each call by key into
/// one record per shard, stamps the records with a client-global call
/// sequence number, and merges completions back into the exact serial
/// order. All calls must come from one thread (the same contract as
/// HistoricalRuntime); the API mirrors HistoricalRuntime so serving
/// sessions and the ShardedRuntime facade can swap it in.
class ShardClient {
 public:
  ~ShardClient();

  ShardClient(const ShardClient&) = delete;
  ShardClient& operator=(const ShardClient&) = delete;

  Status ProcessTuple(const std::string& stream, const Tuple& tuple);
  /// One call: sends one record per shard the tuples' keys touch. A
  /// tuple missing the stream's key field ends the call there — the
  /// tuples before it are still processed, and the call returns
  /// InvalidArgument.
  Status ProcessTuples(const std::string& stream, const Tuple* tuples,
                       size_t n);
  Status ProcessSegment(const std::string& stream, Segment segment);

  /// End of input: pushes a finish sentinel down every shard lane,
  /// waits for all of them to flush, then appends the canonically
  /// merged finish outputs (concatenate per shard, then
  /// RuntimeCore::SortFinishTail — byte-identical to the serial finish
  /// tail). Blocks; returns the
  /// first error any shard hit.
  Status Finish();

  /// Mid-run synchronization point: blocks until every item routed so
  /// far has been processed and its outputs released, WITHOUT the
  /// finish sentinel — processing may continue afterwards. The released
  /// prefix is then deterministic (byte-identical to a serial replay of
  /// the same items), which is what lets the segment store checkpoint a
  /// sharded run mid-stream (docs/STORAGE.md).
  Status Barrier();

  /// The in-order released output prefix: everything whose call (or
  /// finish merge) is complete. Safe to call while shards are still
  /// working — later outputs simply show up on a later call.
  std::vector<Segment> TakeOutputSegments();

  /// Drops this client's queued work: shard workers skip records of an
  /// aborted client (but still complete them, so Barrier returns).
  /// Already-processed outputs stay takeable.
  void Abort();

  /// Wakes `signal` (not owned; null detaches) whenever released
  /// outputs appear in an empty output buffer — one wake per
  /// empty-to-non-empty transition, so a consumer that takes everything
  /// on each wake sees each release promptly. Detach before `signal`
  /// dies; the destructor detaches too.
  void SetReleaseSignal(WorkSignal* signal);

  uint64_t id() const { return state_->id; }
  ShardPool* pool() const { return pool_; }

 private:
  friend class ShardPool;
  ShardClient(ShardPool* pool, std::shared_ptr<ClientState> state);

  /// Stamps `record` with this client and routes it to its shard,
  /// blocking on a full exchange queue. Fails when the pool is shut
  /// down or the client errored.
  Status Route(size_t shard_index, ExchangeRecord record);
  Status ResolveStream(const std::string& stream, uint32_t* index);

  ShardPool* pool_ = nullptr;
  std::shared_ptr<ClientState> state_;
  /// Next call seq to stamp.
  uint64_t next_seq_ = 0;
  /// ProcessTuples scratch: one record under construction per shard,
  /// each shard's tuple count in the current call, each tuple's shard,
  /// and the shards the call touched, in first-touch order.
  std::vector<ExchangeRecord> parts_;
  std::vector<size_t> part_sizes_;
  std::vector<size_t> shard_of_;
  std::vector<size_t> touched_;
  bool finished_ = false;
  /// Memoized stream lookup (sessions feed long same-stream runs).
  std::string memo_stream_;
  uint32_t memo_index_ = 0;
  bool memo_valid_ = false;
};

}  // namespace shard
}  // namespace pulse

#endif  // PULSE_SHARD_SHARD_POOL_H_
