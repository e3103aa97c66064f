#ifndef PULSE_SHARD_EXCHANGE_H_
#define PULSE_SHARD_EXCHANGE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/tuple.h"
#include "model/segment.h"

namespace pulse {
namespace shard {

struct ClientState;

/// One (call, shard) part of a client's work crossing the exchange
/// (docs/SHARDING.md). A ProcessTuples call is split by ShardOf(key)
/// into one record per shard it touches; every record of the call
/// carries the same client-global `call_seq` and the number of `parts`
/// the call was split into, so the completion merge knows when the call
/// is whole. A segment is a one-part call; a finish sentinel sits
/// outside the call sequence.
struct ExchangeRecord {
  enum class Kind : uint8_t { kTuples, kSegment, kFinish };

  /// One tuple of a kTuples record: its timestamp, its position in the
  /// call (the merge key across parts), and where its fields end in
  /// `values`.
  struct Slot {
    double timestamp = 0.0;
    uint32_t position = 0;
    uint32_t values_end = 0;
  };

  Kind kind = Kind::kTuples;
  /// The producing client; keeps its state alive while the record is
  /// queued, so a client may go away with work still in flight.
  std::shared_ptr<ClientState> client;
  uint64_t call_seq = 0;
  uint32_t parts = 1;
  /// Index of the target stream in the pool's sorted stream table.
  uint32_t stream = 0;
  /// kTuples: the call's tuples for this shard, in call order, stored
  /// flat — a few buffers per record rather than one per tuple. Buffers
  /// the producer allocates are freed by the shard worker, and such
  /// cross-thread frees serialize on the allocator's arena lock, so
  /// their count, not their size, is what costs. Held out of line to
  /// keep a record at 184 bytes: with the two buffers inline (224
  /// bytes) ingest_durable's peak RSS rose by a third under glibc malloc
  /// (measured; the cause is not understood).
  struct TupleBatch {
    std::vector<Slot> slots;
    std::vector<Value> values;
  };
  std::unique_ptr<TupleBatch> tuples;
  /// kSegment: the payload.
  Segment segment;

  /// Sizes the tuple buffers for `tuples` tuples of `values` fields.
  void Reserve(size_t tuples, size_t values);
  void AddTuple(const Tuple& tuple, uint32_t position);
  size_t num_tuples() const {
    return tuples == nullptr ? 0 : tuples->slots.size();
  }
  /// Position in the call of tuple `i`.
  uint32_t position(size_t i) const { return tuples->slots[i].position; }
  /// Copies tuple `i` into `*out`, reusing its buffer.
  void TupleAt(size_t i, Tuple* out) const;

  /// What the record counts against the exchange bound: its tuples, or
  /// 1 for a segment or a sentinel.
  size_t weight() const {
    return kind == Kind::kTuples ? num_tuples() : 1;
  }
};

/// Capacity of every shard's exchange queue, in tuples (a segment or a
/// finish sentinel counts as one). Producers block when it is full:
/// the exchange is lossless, and loss policies live at the serving
/// admission edge, not inside the engine.
inline constexpr size_t kExchangeCapacity = 256;

/// Bounded FIFO feeding one shard worker, counted in tuples rather than
/// records so that batching leaves the memory in flight unchanged. Many
/// producers (one per client), one consumer (the shard's worker).
///
/// Two rules keep the weighted bound live: a record heavier than the
/// whole capacity is still admitted into an empty queue (progress never
/// stops), and freeing space wakes every blocked producer — producers
/// of different weights share the queue, so waking one could pick a
/// producer whose record does not fit and strand one whose record does.
class ExchangeQueue {
 public:
  /// `capacity` in tuples; clamped to at least 1.
  explicit ExchangeQueue(size_t capacity);

  /// Blocks until the record fits (or the queue is empty), then
  /// enqueues it. Returns false, leaving `record` unqueued, once the
  /// queue is closed.
  bool Push(ExchangeRecord record);

  /// Blocks until a record is available and moves it into `*out`.
  /// Returns false once the queue is closed and empty.
  bool Pop(ExchangeRecord* out);

  /// Fails further pushes and wakes everyone; already-queued records
  /// stay poppable, so the worker drains them before exiting.
  void Close();

  /// Tuples (record weights) currently queued.
  size_t weight() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable space_cv_;
  std::condition_variable ready_cv_;
  std::deque<ExchangeRecord> records_;
  size_t weight_ = 0;
  bool closed_ = false;
};

}  // namespace shard
}  // namespace pulse

#endif  // PULSE_SHARD_EXCHANGE_H_
