#include "serve/server.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "store/store.h"
#include "util/logging.h"

namespace pulse {
namespace serve {

StreamServer::StreamServer(ServerOptions options)
    : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  c_opened_ = metrics_->GetCounter("serve/session/opened");
  c_closed_ = metrics_->GetCounter("serve/session/closed");
  g_active_ = metrics_->GetGauge("serve/session/active");
}

Result<std::unique_ptr<StreamServer>> StreamServer::Make(
    ServerOptions options) {
  // Fail fast on an unservable query: build one probe runtime now
  // rather than on the first connection.
  HistoricalRuntime::Options probe = options.runtime;
  probe.metrics = nullptr;
  PULSE_RETURN_IF_ERROR(
      HistoricalRuntime::Make(options.spec, std::move(probe)).status());
  auto server =
      std::unique_ptr<StreamServer>(new StreamServer(std::move(options)));
  shard::ShardPoolOptions pool_options;
  pool_options.num_shards =
      server->options_.num_shards != 0
          ? server->options_.num_shards
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  pool_options.runtime = server->options_.runtime;
  PULSE_ASSIGN_OR_RETURN(
      server->pool_,
      shard::ShardPool::Make(server->options_.spec, std::move(pool_options)));
  return server;
}

StreamServer::~StreamServer() { Shutdown(); }

Status StreamServer::AddSession(std::unique_ptr<Transport> transport) {
  // A static session is a thin router: it gets a ShardClient handle onto
  // the shared pool, not a runtime of its own. Per-client solver state
  // is created inside the pool, one slice per shard. Adaptive-precision
  // sessions dispatch into a session-owned runtime instead (the tier
  // lever needs a single sequential call stream to defer and replay;
  // docs/PRECISION.md), so they take no slice of the pool.
  std::unique_ptr<shard::ShardClient> client;
  std::unique_ptr<AdaptiveRuntime> adaptive;
  if (options_.session.precision.enabled) {
    AdaptivePrecisionOptions precision;
    precision.ladder = options_.session.precision.ladder;
    PULSE_ASSIGN_OR_RETURN(
        adaptive,
        AdaptiveRuntime::Make(options_.spec, options_.runtime, precision));
  } else {
    PULSE_ASSIGN_OR_RETURN(client, pool_->AddClient());
  }
  std::vector<std::string> streams;
  for (const auto& [name, spec] : options_.spec.streams()) {
    streams.push_back(name);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("server is shut down");
  }
  ReapLocked();
  auto session = std::make_unique<Session>(
      next_session_id_++, std::move(transport), std::move(client),
      options_.session, std::move(streams), metrics_, options_.store,
      std::move(adaptive));
  session->Start();
  sessions_.push_back(std::move(session));
  c_opened_->Increment();
  UpdateSessionMetricsLocked();
  return Status::OK();
}

Result<std::unique_ptr<Transport>> StreamServer::ConnectInProcess() {
  TransportPair pair = MakeInProcessPair();
  PULSE_RETURN_IF_ERROR(AddSession(std::move(pair.server)));
  return std::move(pair.client);
}

Status StreamServer::ListenTcp(uint16_t port) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("server is shut down");
    }
    if (listener_ != nullptr) {
      return Status::AlreadyExists("already listening on port " +
                                   std::to_string(listener_->port()));
    }
  }
  PULSE_ASSIGN_OR_RETURN(std::unique_ptr<TcpListener> listener,
                         TcpListener::Listen(port));
  {
    std::lock_guard<std::mutex> lock(mu_);
    listener_ = std::move(listener);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

uint16_t StreamServer::tcp_port() const {
  std::lock_guard<std::mutex> lock(mu_);
  return listener_ == nullptr ? 0 : listener_->port();
}

void StreamServer::AcceptLoop() {
  for (;;) {
    Result<std::unique_ptr<Transport>> conn = listener_->Accept();
    if (!conn.ok()) return;  // listener closed (shutdown) or fatal
    // A rejected session (e.g. shutdown race) just drops the
    // connection; the client sees EOF.
    (void)AddSession(std::move(*conn));
  }
}

void StreamServer::ReapLocked() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->finished()) {
      (*it)->Join();
      it = sessions_.erase(it);
      c_closed_->Increment();
    } else {
      ++it;
    }
  }
}

void StreamServer::UpdateSessionMetricsLocked() {
  g_active_->Set(static_cast<double>(sessions_.size()));
}

void StreamServer::Drain() {
  std::vector<Session*> draining;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    if (listener_ != nullptr) listener_->Close();
    for (const auto& session : sessions_) draining.push_back(session.get());
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (Session* session : draining) session->BeginDrain();
  for (Session* session : draining) session->Join();
  // Every session has flushed its runtimes and delivered its outputs:
  // seal the store so recovery knows this was an orderly stop.
  if (options_.store != nullptr) {
    Status status = options_.store->WriteCheckpoint(/*finished=*/true);
    if (!status.ok()) {
      metrics_->GetCounter("serve/checkpoint/failed")->Increment();
      PULSE_LOG(Warning) << "drain checkpoint failed: " << status.ToString();
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ReapLocked();
  UpdateSessionMetricsLocked();
}

void StreamServer::Shutdown() {
  std::vector<Session*> aborting;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    if (listener_ != nullptr) listener_->Close();
    for (const auto& session : sessions_) aborting.push_back(session.get());
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (Session* session : aborting) session->Abort();
  for (Session* session : aborting) session->Join();
  std::lock_guard<std::mutex> lock(mu_);
  ReapLocked();
  UpdateSessionMetricsLocked();
}

size_t StreamServer::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t active = 0;
  for (const auto& session : sessions_) {
    if (!session->finished()) ++active;
  }
  return active;
}

obs::MetricsSnapshot StreamServer::Snapshot() const {
  obs::MetricsSnapshot snap = metrics_->Snapshot();
  snap.Merge(pool_->Snapshot());
  return snap;
}

uint64_t StreamServer::sessions_opened() const {
  return c_opened_->value();
}

}  // namespace serve
}  // namespace pulse
