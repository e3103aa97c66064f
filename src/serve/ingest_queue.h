#ifndef PULSE_SERVE_INGEST_QUEUE_H_
#define PULSE_SERVE_INGEST_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "engine/tuple.h"
#include "model/segment.h"
#include "util/work_signal.h"

namespace pulse {
namespace serve {

/// What a session does when its ingest queue has no room for a frame
/// (docs/SERVING.md discusses when each policy is appropriate).
enum class BackpressurePolicy : uint8_t {
  /// Producer (the session reader thread) waits for space. Lossless:
  /// backpressure propagates through the transport to the client.
  kBlock = 0,
  /// Evict whole oldest frames until the newest fits (freshness over
  /// completeness; the client learns via a kDroppedOldest flow frame).
  kDropOldest = 1,
  /// Reject the arriving frame (completeness of what was admitted over
  /// freshness; the client learns via a kShed flow frame).
  kShed = 2,
};

const char* BackpressurePolicyToString(BackpressurePolicy policy);

/// One admitted data frame: the session's unit of work. A tuple frame
/// fills `tuples`, a segment frame `segments`; its weight against the
/// queue capacity is the two counts together.
struct IngestItem {
  /// Index of the frame's stream in the session's declared-stream table.
  uint32_t stream = 0;
  /// Precision tier stamped at admission by the session reader
  /// (adaptive sessions only; docs/PRECISION.md). The worker applies
  /// tier changes at item boundaries, so tier transitions are a pure
  /// function of the admission order — deterministic for a given
  /// arrival order. Always 0 in static mode.
  uint8_t tier = 0;
  std::vector<Tuple> tuples;
  std::vector<Segment> segments;

  size_t weight() const { return tuples.size() + segments.size(); }
};

/// Producer-side outcome of an admission attempt.
enum class PushResult : uint8_t {
  kAccepted = 0,
  /// Queue full under kBlock: nothing was enqueued; the caller should
  /// notify the client (kPaused) and then call PushBlocking.
  kWouldBlock = 1,
  /// Accepted after evicting whole oldest items, `*dropped` tuples plus
  /// segments in all (kDropOldest).
  kDroppedOldest = 2,
  /// Rejected (kShed), nothing enqueued.
  kShed = 3,
  /// Queue closed (session shutting down), nothing enqueued.
  kClosed = 4,
};

/// Bounded single-producer / single-consumer ingest queue of a session,
/// in frames (items) but bounded in weight: tuples plus segments. An
/// item heavier than the whole capacity still enters an empty queue, so
/// a large frame is never refused for its size alone (the
/// shard::ExchangeQueue rule). Bounding — not lock freedom — is the
/// load-bearing property: a slow solver surfaces as explicit
/// backpressure at admission instead of unbounded memory.
class IngestQueue {
 public:
  /// `capacity` in tuples plus segments, clamped to at least 1.
  /// `signal` (not owned, may be null) is notified on every successful
  /// push so the session worker can sleep until there is work.
  IngestQueue(size_t capacity, WorkSignal* signal);

  /// Non-blocking admission under `policy`. `*item` is consumed (moved
  /// from) only when the result says it was enqueued — on kWouldBlock /
  /// kShed / kClosed it is left intact so the caller can retry with
  /// PushBlocking. On kDroppedOldest, `*dropped` (may be null) receives
  /// the evicted weight.
  PushResult TryPush(IngestItem* item, BackpressurePolicy policy,
                     uint64_t* dropped);

  /// kBlock slow path: waits for space (or Close), then enqueues.
  /// `*blocked_ns` (may be null) receives the wait time. Returns false
  /// when the queue was closed before space appeared.
  bool PushBlocking(IngestItem item, uint64_t* blocked_ns);

  /// Consumer side: appends every queued item to `*out` in queue order
  /// under one lock; false when the queue was empty.
  bool PopAll(std::vector<IngestItem>* out);

  /// Tuples plus segments currently queued.
  size_t weight() const;
  size_t capacity() const { return capacity_; }

  /// Unblocks producers and makes all further pushes fail with kClosed.
  /// Already-queued items stay poppable (drain reads them out).
  void Close();

 private:
  // Whether an item of weight `w` fits now (caller holds mu_).
  bool FitsLocked(size_t w) const {
    return items_.empty() || weight_ + w <= capacity_;
  }

  const size_t capacity_;
  WorkSignal* signal_;
  mutable std::mutex mu_;
  std::condition_variable space_cv_;
  std::deque<IngestItem> items_;
  size_t weight_ = 0;
  bool closed_ = false;
};

}  // namespace serve
}  // namespace pulse

#endif  // PULSE_SERVE_INGEST_QUEUE_H_
