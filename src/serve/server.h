#ifndef PULSE_SERVE_SERVER_H_
#define PULSE_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/query.h"
#include "core/runtime.h"
#include "obs/metrics.h"
#include "serve/session.h"
#include "serve/tcp_transport.h"
#include "serve/transport.h"
#include "shard/shard_pool.h"

namespace pulse {
namespace store {
class SegmentStore;
}  // namespace store
namespace serve {

struct ServerOptions {
  /// The continuous query every session runs. Static-precision sessions
  /// multiplex onto one shared shard pool, which shares worker threads,
  /// not solver state: ShardPool::AddClient builds one HistoricalRuntime
  /// per shard for every session (docs/SHARDING.md).
  QuerySpec spec;
  /// Template for the pool's per-shard client runtimes. `metrics` is
  /// overridden per shard (see shard::ShardPoolOptions).
  HistoricalRuntime::Options runtime;
  SessionOptions session;
  /// Shard (worker thread) count for the shared pool. 0 means auto:
  /// one shard per hardware thread — the shard-per-core shape.
  size_t num_shards = 0;
  /// Registry for the server-wide serve/* metric families
  /// (docs/SERVING.md lists them). The shard pool's series stay in the
  /// shards' own registries; Snapshot() reads both. nullptr: the server
  /// owns a private one, reachable via metrics().
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional durable mode: every session appends admitted input to
  /// this shared segment store before dispatch, delivered outputs
  /// advance its checkpoint watermark, and Drain() seals it with a
  /// finished checkpoint. With several concurrent sessions the log is
  /// a stream of record across all of them (recovery rebuilds state by
  /// replay; per-connection delivery order is not resumed — see
  /// docs/STORAGE.md). Not owned; must outlive the server.
  store::SegmentStore* store = nullptr;
};

/// Multi-session streaming front-end over the Pulse runtimes: accepts
/// client connections (in-process or TCP), runs one Session per
/// connection multiplexed onto a shared shard-per-core pool, and
/// supports graceful drain of the whole fleet. This is the serving
/// shape the ROADMAP's "production-scale" north star asks for;
/// docs/ARCHITECTURE.md places it in the end-to-end dataflow and
/// docs/SHARDING.md specifies the pool underneath.
class StreamServer {
 public:
  static Result<std::unique_ptr<StreamServer>> Make(ServerOptions options);
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Opens an in-process connection and returns the client endpoint
  /// (tests, benches, and the serving differential connect here — same
  /// frame bytes as TCP, no sockets).
  Result<std::unique_ptr<Transport>> ConnectInProcess();

  /// Starts accepting TCP connections on loopback `port` (0 picks an
  /// ephemeral port; see tcp_port()). One background accept thread.
  Status ListenTcp(uint16_t port);
  /// Bound TCP port; 0 when ListenTcp was not called.
  uint16_t tcp_port() const;

  /// Graceful shutdown: stop accepting, drain every session (process
  /// all admitted input, deliver outputs), join all threads.
  void Drain();

  /// Hard shutdown: abort sessions, discard queued input.
  void Shutdown();

  /// Sessions whose threads are still running.
  size_t active_sessions() const;
  /// Sessions ever accepted.
  uint64_t sessions_opened() const;

  /// The serve/* registry alone.
  obs::MetricsRegistry* metrics() const { return metrics_; }
  /// Every exported series, read now: the serve/* registry's plus the
  /// shard pool's (`shard/<i>/...` and the plain-name rollups; see
  /// shard::ShardPool::Snapshot).
  obs::MetricsSnapshot Snapshot() const;

  /// The shared shard pool all sessions route into.
  const shard::ShardPool& pool() const { return *pool_; }
  size_t num_shards() const { return pool_->num_shards(); }

 private:
  explicit StreamServer(ServerOptions options);

  Status AddSession(std::unique_ptr<Transport> transport);
  void AcceptLoop();
  /// Drops finished sessions (join + destroy); called opportunistically
  /// on connect and from the shutdown paths.
  void ReapLocked();
  void UpdateSessionMetricsLocked();

  ServerOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* c_opened_ = nullptr;
  obs::Counter* c_closed_ = nullptr;
  obs::Gauge* g_active_ = nullptr;

  // Declared before sessions_: static sessions hold ShardClients into
  // the pool, so they must be destroyed first (reverse declaration
  // order).
  std::unique_ptr<shard::ShardPool> pool_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;
  bool shutdown_ = false;

  std::unique_ptr<TcpListener> listener_;
  std::thread accept_thread_;
};

}  // namespace serve
}  // namespace pulse

#endif  // PULSE_SERVE_SERVER_H_
