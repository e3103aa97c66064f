#ifndef PULSE_SERVE_INGEST_QUEUE_H_
#define PULSE_SERVE_INGEST_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "engine/tuple.h"
#include "model/segment.h"

namespace pulse {
namespace serve {

/// What a session does when a stream's ingest queue is full
/// (docs/SERVING.md discusses when each policy is appropriate).
enum class BackpressurePolicy : uint8_t {
  /// Producer (the session reader thread) waits for space. Lossless:
  /// backpressure propagates through the transport to the client.
  kBlock = 0,
  /// Evict the oldest queued items to admit the newest (freshness over
  /// completeness; the client learns via a kDroppedOldest flow frame).
  kDropOldest = 1,
  /// Reject the arriving items (completeness of what was admitted over
  /// freshness; the client learns via a kShed flow frame).
  kShed = 2,
};

const char* BackpressurePolicyToString(BackpressurePolicy policy);

/// One admitted ingest work item. `seq` is a session-global admission
/// sequence number: the reader thread (single producer for all of a
/// session's queues) assigns consecutive values across streams, and the
/// worker replays items in ascending seq — so micro-batching across
/// per-stream queues preserves the client's arrival order exactly.
struct IngestItem {
  uint64_t seq = 0;
  /// Precision tier stamped at admission by the session reader
  /// (adaptive sessions only; docs/PRECISION.md). The worker applies
  /// tier changes at item boundaries, so tier transitions are a pure
  /// function of the admission sequence — deterministic for a given
  /// arrival order. Always 0 in static mode.
  uint8_t tier = 0;
  bool is_segment = false;
  Tuple tuple;      // meaningful when !is_segment
  Segment segment;  // meaningful when is_segment
};

/// Producer-side outcome of an admission attempt.
enum class PushResult : uint8_t {
  kAccepted = 0,
  /// Queue full under kBlock: nothing was enqueued; the caller should
  /// notify the client (kPaused) and then call PushBlocking.
  kWouldBlock = 1,
  /// Accepted after evicting `*dropped` oldest items (kDropOldest).
  kDroppedOldest = 2,
  /// Rejected (kShed), nothing enqueued.
  kShed = 3,
  /// Queue closed (session shutting down), nothing enqueued.
  kClosed = 4,
};

/// Edge-triggered wakeup shared by all of a session's queues: producers
/// Notify() after every push, the consumer Wait()s on an epoch it read
/// before scanning the queues empty (the classic eventcount, so a push
/// between scan and wait is never lost).
class WorkSignal {
 public:
  uint64_t epoch() const;
  void Notify();
  /// Blocks until the epoch advances past `seen`; returns the new epoch.
  uint64_t Wait(uint64_t seen);

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t epoch_ = 0;
};

/// Bounded single-producer / single-consumer ingest queue for one
/// session stream. The mutex is uncontended in steady state (producer
/// and consumer touch it briefly per item); bounding — not lock
/// freedom — is the load-bearing property: a slow solver surfaces as
/// explicit backpressure at admission instead of unbounded memory.
class IngestQueue {
 public:
  /// `signal` (not owned, may be null) is notified on every successful
  /// push so the session worker can sleep across all queues at once.
  IngestQueue(size_t capacity, WorkSignal* signal);

  /// Non-blocking admission under `policy`. `*item` is consumed (moved
  /// from) only when the result says it was enqueued — on kWouldBlock /
  /// kShed / kClosed it is left intact so the caller can retry with
  /// PushBlocking. On kDroppedOldest, `*dropped` (may be null) receives
  /// the eviction count.
  PushResult TryPush(IngestItem* item, BackpressurePolicy policy,
                     uint64_t* dropped);

  /// kBlock slow path: waits for space (or Close), then enqueues.
  /// `*blocked_ns` (may be null) receives the wait time. Returns false
  /// when the queue was closed before space appeared.
  bool PushBlocking(IngestItem item, uint64_t* blocked_ns);

  /// Consumer side: copies the head's seq (and, when `is_segment` /
  /// `tier` are non-null, its payload kind and precision tier) without
  /// popping; false when empty. (The min-seq merge across a session's
  /// queues needs only this, not the payload; the micro-batcher uses
  /// the tier to keep a batch from crossing a tier change.)
  bool PeekSeq(uint64_t* seq, bool* is_segment = nullptr,
               uint8_t* tier = nullptr) const;

  /// Pops the head into `*out`; false when empty.
  bool Pop(IngestItem* out);

  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Unblocks producers and makes all further pushes fail with kClosed.
  /// Already-queued items stay poppable (drain reads them out).
  void Close();
  bool closed() const;

 private:
  const size_t capacity_;
  WorkSignal* signal_;
  mutable std::mutex mu_;
  std::condition_variable space_cv_;
  std::deque<IngestItem> items_;
  bool closed_ = false;
};

}  // namespace serve
}  // namespace pulse

#endif  // PULSE_SERVE_INGEST_QUEUE_H_
