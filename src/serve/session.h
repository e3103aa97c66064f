#ifndef PULSE_SERVE_SESSION_H_
#define PULSE_SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/precision.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/frame.h"
#include "serve/ingest_queue.h"
#include "serve/transport.h"
#include "shard/shard_pool.h"

namespace pulse {
namespace store {
class SegmentStore;
}  // namespace store
namespace serve {

/// Per-session serving knobs (shared by every session of a server;
/// docs/SERVING.md walks through the policy trade-offs).
struct SessionOptions {
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  /// Session ingest queue capacity, in tuples plus segments. A frame
  /// heavier than this still enters an empty queue.
  size_t queue_capacity = 256;
  AdmissionOptions admission;
  /// Precision stage ahead of load shedding (docs/PRECISION.md). When
  /// `precision.enabled`, the server gives each session a session-owned
  /// AdaptiveRuntime over `precision.ladder` instead of a shard-pool
  /// slice, the reader stamps every admitted frame with the controller's
  /// tier, and the worker emits provisional/confirm/retract frames
  /// alongside the settled output stream.
  PrecisionOptions precision;
};

/// One client connection: a protocol reader thread admitting data
/// frames into one bounded session queue, and a worker thread draining
/// it in admission order into the server's shared shard pool.
///
///   reader: transport -> FrameReader -> admission control -> queue,
///           one IngestItem per data frame
///   worker: queue -> runs of adjacent same-stream tuple frames ->
///           ShardClient (key-routed to the shared shard pool) -> output
///           segments -> transport, the outputs written as soon as the
///           shards release them
///
/// The queue holds frames of every stream in arrival order, so dispatch
/// order is admission order however the client interleaves its streams
/// and however the worker coalesces adjacent frames. The ShardClient
/// then restores that exact order on the output side
/// (docs/SHARDING.md), so the end-to-end invariant the serving
/// differential checks — outputs byte-identical to the batch replay
/// path — survives the fan-out to shards. Sessions do not own a
/// runtime: each holds a thin routing handle onto the pool, so solver
/// state is per shard, not per session.
class Session {
 public:
  /// `serve_metrics` is the server-wide serve/* registry;
  /// `valid_streams` the query's declared input stream names. The
  /// registry, the transport, and the client's pool must outlive
  /// Join(). `store` (optional) makes the session durable: every
  /// admitted item is appended to the shared segment log before it is
  /// dispatched, and delivered outputs advance the store's checkpoint
  /// watermark (docs/STORAGE.md). `adaptive` (optional, built by the
  /// server when `options.precision.enabled`) switches the session to
  /// adaptive precision: the worker dispatches into it, `client` is
  /// null, and the controller's tier stamps ride each admitted frame
  /// (docs/PRECISION.md).
  Session(uint64_t id, std::unique_ptr<Transport> transport,
          std::unique_ptr<shard::ShardClient> client, SessionOptions options,
          std::vector<std::string> valid_streams,
          obs::MetricsRegistry* serve_metrics,
          store::SegmentStore* store = nullptr,
          std::unique_ptr<AdaptiveRuntime> adaptive = nullptr);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Spawns the reader and worker threads. Call exactly once.
  void Start();

  /// True once both threads have finished (the server reaps on this).
  bool finished() const;

  /// Blocks until both threads exit (transport EOF / kBye / drain
  /// complete / Abort). Idempotent.
  void Join();

  /// Graceful drain: stop admitting, process everything already
  /// accepted, deliver outputs, then close. The server calls it; so do
  /// the reader on kDrain and on its own exit.
  void BeginDrain();

  /// Hard stop: close the queue and transport, wake both threads. Items
  /// not yet dispatched are discarded.
  void Abort();

  uint64_t id() const { return id_; }
  /// First fatal error observed (empty while healthy).
  std::string error() const;

 private:
  void ReaderLoop();
  void WorkerLoop();
  /// Dispatches one control/data frame; a returned error is fatal to
  /// the session (sent to the client as kError, then Abort).
  Status HandleFrame(Frame frame);
  /// Admission control + enqueue for a data frame.
  Status AdmitData(Frame frame);
  /// Applies the backpressure policy to one admitted frame;
  /// `stream_id` addresses the flow frames that report the outcome.
  Status Enqueue(uint32_t stream_id, IngestItem item);
  /// Dispatches `items` in order: each maximal run of adjacent tuple
  /// items with one stream and tier as one ProcessTuples call, each
  /// segment on its own.
  Status Dispatch(std::vector<IngestItem>* items);
  Status WriteFrame(const Frame& frame);
  /// Moves the shard client's released output segments to the peer.
  Status FlushOutputs();
  void RecordFatal(const Status& status);

  const uint64_t id_;
  std::unique_ptr<Transport> transport_;
  // Wakes the worker on admissions, drain, abort and shard releases.
  // Declared before client_, which holds it as its release signal: the
  // client (and the signal's registration with the pool) dies first.
  WorkSignal signal_;
  // Declared before admission_: the controller's latency signal is read
  // through one of these handles (the adaptive runtime's own registry
  // when present, every shard's registry otherwise).
  // client_ is the routing handle onto the shard pool; it is null for an
  // adaptive session, which never touches the pool.
  std::unique_ptr<shard::ShardClient> client_;
  /// Session-owned adaptive runtime; nullptr = static precision, and
  /// the worker dispatches into client_.
  std::unique_ptr<AdaptiveRuntime> adaptive_;
  const SessionOptions options_;
  /// The query's declared input streams; an IngestItem's `stream`
  /// indexes this table.
  const std::vector<std::string> valid_streams_;
  obs::MetricsRegistry* serve_metrics_;
  /// Shared durable log; nullptr in the default in-memory mode.
  store::SegmentStore* store_ = nullptr;
  AdmissionController admission_;

  std::thread reader_;
  std::thread worker_;
  std::mutex join_mu_;
  bool joined_ = false;

  IngestQueue queue_;
  // Worker-only scratch: the popped items and a run's joined tuples.
  std::vector<IngestItem> popped_;
  std::vector<Tuple> run_;

  std::mutex write_mu_;
  std::string write_buf_;

  mutable std::mutex error_mu_;
  std::string error_;

  // Reader-only protocol state. `open_streams_` maps each opened
  // client stream id to its index in valid_streams_.
  bool saw_hello_ = false;
  std::unordered_map<uint32_t, uint32_t> open_streams_;
  bool admission_overloaded_prev_ = false;

  std::atomic<bool> accepting_{true};
  std::atomic<bool> drain_requested_{false};
  /// Client asked via kDrain (gets a kDrained reply; Bye/EOF do not).
  std::atomic<bool> client_drain_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> reader_done_{false};
  std::atomic<bool> worker_done_{false};

  // serve/* handles (shared registry; stable for its lifetime).
  obs::Counter* c_accepted_ = nullptr;
  obs::Counter* c_dropped_ = nullptr;
  obs::Counter* c_shed_ = nullptr;
  obs::Counter* c_blocked_ns_ = nullptr;
  obs::Gauge* g_depth_ = nullptr;
  obs::Counter* c_batch_dispatched_ = nullptr;
  obs::Counter* c_batch_tuples_ = nullptr;
  obs::Counter* c_batch_segments_ = nullptr;
  obs::Counter* c_shed_queue_ = nullptr;
  obs::Counter* c_shed_latency_ = nullptr;
  obs::Counter* c_overloaded_ = nullptr;

  // precision/* + retract/* handles (adaptive sessions only). Each
  // flush adds what it wrote and the runtime's events since the last
  // flush, so the counters sum over sessions.
  obs::Counter* c_provisional_ = nullptr;
  obs::Counter* c_confirmed_ = nullptr;
  obs::Counter* c_retracted_ = nullptr;
  obs::Counter* c_widened_ = nullptr;
  obs::Counter* c_tightened_ = nullptr;
  obs::Counter* c_deferred_ = nullptr;
  obs::Counter* c_replayed_ = nullptr;
  obs::Counter* c_retract_deviation_ = nullptr;
  obs::Counter* c_retract_spurious_ = nullptr;
  obs::Gauge* g_tier_ = nullptr;
  obs::Gauge* g_open_ = nullptr;
  /// adaptive_->stats() at the previous flush (worker-only).
  PrecisionStats flushed_stats_;
};

}  // namespace serve
}  // namespace pulse

#endif  // PULSE_SERVE_SESSION_H_
