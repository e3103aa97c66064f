#include "shard/shard_pool.h"

#include <algorithm>
#include <utility>

namespace pulse {
namespace shard {

// ---------------------------------------------------------------------
// ShardPool

Result<std::unique_ptr<ShardPool>> ShardPool::Make(const QuerySpec& spec,
                                                   ShardPoolOptions options) {
  auto pool = std::unique_ptr<ShardPool>(new ShardPool());
  pool->spec_ = spec;
  pool->options_ = std::move(options);
  if (pool->options_.num_shards == 0) pool->options_.num_shards = 1;
  pool->partition_ = AnalyzePartitionability(spec);
  // A non-partitionable plan degrades to one engine shard (all keys ->
  // shard 0); worker threads beyond the first would sit idle.
  const size_t effective =
      pool->partition_.partitionable ? pool->options_.num_shards : 1;
  pool->router_ = ShardRouter(effective);

  for (const auto& [name, stream] : spec.streams()) {
    PULSE_ASSIGN_OR_RETURN(size_t key_index,
                           stream.schema->IndexOf(stream.key_field));
    pool->stream_names_.push_back(name);
    pool->stream_key_index_.push_back(key_index);
  }

  for (size_t i = 0; i < effective; ++i) {
    auto s = std::make_unique<Shard>();
    s->queue = std::make_unique<ExchangeQueue>(kExchangeCapacity);
    s->registry = std::make_unique<obs::MetricsRegistry>();
    s->c_records = s->registry->GetCounter("shard/exchange/records");
    s->c_tuples = s->registry->GetCounter("shard/exchange/tuples");
    pool->shards_.push_back(std::move(s));
  }
  for (size_t i = 0; i < pool->shards_.size(); ++i) {
    pool->shards_[i]->worker =
        std::thread([raw = pool.get(), i] { raw->WorkerLoop(i); });
  }
  return pool;
}

ShardPool::~ShardPool() { Shutdown(); }

void ShardPool::Shutdown() {
  if (shutdown_.exchange(true)) {
    for (auto& s : shards_) {
      if (s->worker.joinable()) s->worker.join();
    }
    return;
  }
  for (auto& s : shards_) s->queue->Close();
  for (auto& s : shards_) {
    if (s->worker.joinable()) s->worker.join();
  }
}

obs::MetricsRegistry* ShardPool::shard_metrics(size_t i) const {
  return i < shards_.size() ? shards_[i]->registry.get() : nullptr;
}

obs::MetricsSnapshot ShardPool::Snapshot() const {
  obs::MetricsSnapshot snap;
  std::vector<const obs::MetricsRegistry*> sources;
  sources.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    snap.Merge(shards_[i]->registry->Snapshot(),
               "shard/" + std::to_string(i) + "/");
    sources.push_back(shards_[i]->registry.get());
  }
  obs::MetricsRegistry rollup;
  obs::MetricsRegistry::Rollup(sources, &rollup);
  snap.Merge(rollup.Snapshot());
  return snap;
}

Result<std::unique_ptr<ShardClient>> ShardPool::AddClient() {
  if (shutdown_.load()) {
    return Status::FailedPrecondition("shard pool is shut down");
  }
  auto state = std::make_shared<ClientState>();
  state->finish_outputs.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    HistoricalRuntime::Options rt = options_.runtime;
    rt.metrics = shards_[i]->registry.get();
    PULSE_ASSIGN_OR_RETURN(HistoricalRuntime runtime,
                           HistoricalRuntime::Make(spec_, std::move(rt)));
    state->runtimes.push_back(
        std::make_unique<HistoricalRuntime>(std::move(runtime)));
  }
  state->id = next_client_id_.fetch_add(1);
  return std::unique_ptr<ShardClient>(new ShardClient(this, state));
}

void ShardPool::CompletePartLocked(ClientState* state, uint64_t call_seq,
                                   uint32_t parts,
                                   std::vector<Segment> outputs,
                                   std::vector<uint32_t> positions) {
  const size_t slot = static_cast<size_t>(call_seq - state->released_seq);
  if (slot >= state->pending.size()) state->pending.resize(slot + 1);
  ClientState::PendingCall& call = state->pending[slot];
  call.parts = parts;
  ++call.arrived;
  if (call.outputs.empty()) {
    call.outputs = std::move(outputs);
    call.positions = std::move(positions);
  } else {
    call.outputs.insert(call.outputs.end(),
                        std::make_move_iterator(outputs.begin()),
                        std::make_move_iterator(outputs.end()));
    call.positions.insert(call.positions.end(), positions.begin(),
                          positions.end());
  }
  std::vector<Segment>& ready = state->ready;
  while (!state->pending.empty() && state->pending.front().parts != 0 &&
         state->pending.front().arrived == state->pending.front().parts) {
    ClientState::PendingCall& done = state->pending.front();
    if (done.parts > 1) {
      // Parts arrive in whatever order the shards finish; within a part
      // outputs are already in position order, and a stable sort by
      // position interleaves the parts back into the serial order (one
      // tuple's outputs all come from one shard, so ties keep theirs).
      std::vector<uint32_t> order(done.outputs.size());
      for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&](uint32_t a, uint32_t b) {
                         return done.positions[a] < done.positions[b];
                       });
      for (uint32_t i : order) ready.push_back(std::move(done.outputs[i]));
    } else if (ready.empty()) {
      ready = std::move(done.outputs);
    } else {
      ready.insert(ready.end(), std::make_move_iterator(done.outputs.begin()),
                   std::make_move_iterator(done.outputs.end()));
    }
    state->pending.pop_front();
    ++state->released_seq;
  }
}

void ShardPool::WorkerLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  ExchangeRecord record;
  while (shard.queue->Pop(&record)) {
    Dispatch(shard_index, std::move(record));
  }
}

void ShardPool::Dispatch(size_t shard_index, ExchangeRecord record) {
  Shard& shard = *shards_[shard_index];
  shard.c_records->Increment();
  shard.c_tuples->Add(record.num_tuples());
  ClientState* client = record.client.get();
  HistoricalRuntime* runtime = client->runtimes[shard_index].get();

  if (record.kind == ExchangeRecord::Kind::kFinish) {
    Status status;
    std::vector<Segment> outputs;
    if (!client->aborted.load()) {
      status = runtime->Finish();
      if (status.ok()) outputs = runtime->TakeOutputSegments();
    }
    std::lock_guard<std::mutex> lock(client->mu);
    if (!status.ok() && client->error.empty()) {
      client->error = status.ToString();
      client->failed.store(true);
    }
    client->finish_outputs[shard_index] = std::move(outputs);
    --client->finish_remaining;
    client->cv.notify_all();
    return;
  }

  // Tuples are processed in call order; a call split over several
  // shards tags each output with its tuple's position in the call. On a
  // failure the tuples after it are skipped, as an aborted client's
  // would be.
  Status status;
  std::vector<Segment> outputs;
  std::vector<uint32_t> positions;
  if (!client->aborted.load()) {
    const std::string& stream = stream_names_[record.stream];
    if (record.kind == ExchangeRecord::Kind::kSegment) {
      status = runtime->ProcessSegment(stream, std::move(record.segment));
      if (status.ok()) outputs = runtime->TakeOutputSegments();
    } else {
      for (size_t i = 0; i < record.num_tuples(); ++i) {
        record.TupleAt(i, &shard.tuple);
        status = runtime->ProcessTuple(stream, shard.tuple);
        if (!status.ok()) break;
        std::vector<Segment> produced = runtime->TakeOutputSegments();
        if (produced.empty()) continue;
        if (record.parts > 1) {
          positions.insert(positions.end(), produced.size(),
                           record.position(i));
        }
        outputs.insert(outputs.end(), std::make_move_iterator(produced.begin()),
                       std::make_move_iterator(produced.end()));
      }
    }
  }
  std::lock_guard<std::mutex> lock(client->mu);
  if (!status.ok()) {
    if (client->error.empty()) {
      client->error = status.ToString();
      client->failed.store(true);
    }
    client->aborted.store(true);
  }
  const bool was_empty = client->ready.empty();
  CompletePartLocked(client, record.call_seq, record.parts,
                     std::move(outputs), std::move(positions));
  if (was_empty && !client->ready.empty() &&
      client->release_signal != nullptr) {
    client->release_signal->Notify();
  }
  client->cv.notify_all();
}

// ---------------------------------------------------------------------
// ShardClient

ShardClient::ShardClient(ShardPool* pool, std::shared_ptr<ClientState> state)
    : pool_(pool),
      state_(std::move(state)),
      parts_(pool->shards_.size()),
      part_sizes_(pool->shards_.size(), 0) {}

ShardClient::~ShardClient() {
  Abort();
  SetReleaseSignal(nullptr);
}

void ShardClient::Abort() { state_->aborted.store(true); }

void ShardClient::SetReleaseSignal(WorkSignal* signal) {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->release_signal = signal;
}

Status ShardClient::ResolveStream(const std::string& stream,
                                  uint32_t* index) {
  if (memo_valid_ && memo_stream_ == stream) {
    *index = memo_index_;
    return Status::OK();
  }
  const auto& names = pool_->stream_names_;
  const auto it = std::lower_bound(names.begin(), names.end(), stream);
  if (it == names.end() || *it != stream) {
    return Status::NotFound("stream '" + stream + "' not declared");
  }
  memo_stream_ = stream;
  memo_index_ = static_cast<uint32_t>(it - names.begin());
  memo_valid_ = true;
  *index = memo_index_;
  return Status::OK();
}

Status ShardClient::Route(size_t shard_index, ExchangeRecord record) {
  if (state_->failed.load()) {
    std::lock_guard<std::mutex> lock(state_->mu);
    return Status::Internal("shard worker failed: " + state_->error);
  }
  record.client = state_;
  if (pool_->shards_[shard_index]->queue->Push(std::move(record))) {
    return Status::OK();
  }
  return Status::FailedPrecondition("shard pool is shut down");
}

Status ShardClient::ProcessTuple(const std::string& stream,
                                 const Tuple& tuple) {
  return ProcessTuples(stream, &tuple, 1);
}

Status ShardClient::ProcessTuples(const std::string& stream,
                                  const Tuple* tuples, size_t n) {
  if (finished_) {
    return Status::FailedPrecondition("client already finished");
  }
  uint32_t index = 0;
  PULSE_RETURN_IF_ERROR(ResolveStream(stream, &index));
  const size_t key_index = pool_->stream_key_index_[index];
  // Route every tuple up to the first one without a key, counting each
  // shard's share so its record is allocated once, at its final size.
  Status status;
  shard_of_.clear();
  for (size_t i = 0; i < n; ++i) {
    if (key_index >= tuples[i].values.size()) {
      status = Status::InvalidArgument("tuple missing key field");
      break;
    }
    const size_t shard =
        pool_->router_.ShardOf(tuples[i].at(key_index).as_int64());
    if (part_sizes_[shard]++ == 0) touched_.push_back(shard);
    shard_of_.push_back(shard);
  }
  if (touched_.empty()) return status;
  const uint64_t call_seq = next_seq_++;
  const uint32_t parts = static_cast<uint32_t>(touched_.size());
  for (size_t shard : touched_) {
    ExchangeRecord& part = parts_[shard];
    part.call_seq = call_seq;
    part.parts = parts;
    part.stream = index;
    part.Reserve(part_sizes_[shard],
                 part_sizes_[shard] * tuples[0].values.size());
  }
  for (size_t i = 0; i < shard_of_.size(); ++i) {
    parts_[shard_of_[i]].AddTuple(tuples[i], static_cast<uint32_t>(i));
  }
  for (size_t shard : touched_) {
    part_sizes_[shard] = 0;
    Status routed = Route(shard, std::move(parts_[shard]));
    if (status.ok() && !routed.ok()) status = std::move(routed);
  }
  touched_.clear();
  return status;
}

Status ShardClient::ProcessSegment(const std::string& stream,
                                   Segment segment) {
  if (finished_) {
    return Status::FailedPrecondition("client already finished");
  }
  uint32_t index = 0;
  PULSE_RETURN_IF_ERROR(ResolveStream(stream, &index));
  const size_t shard = pool_->router_.ShardOf(segment.key);
  ExchangeRecord record;
  record.kind = ExchangeRecord::Kind::kSegment;
  record.call_seq = next_seq_++;
  record.stream = index;
  record.segment = std::move(segment);
  return Route(shard, std::move(record));
}

Status ShardClient::Barrier() {
  std::unique_lock<std::mutex> lock(state_->mu);
  // Workers complete every record — even an aborted client's — so
  // released_seq always catches up to next_seq_ and the wait cannot
  // hang.
  state_->cv.wait(lock, [&] {
    return state_->released_seq >= next_seq_ || !state_->error.empty();
  });
  return state_->error.empty()
             ? Status::OK()
             : Status::Internal("shard worker failed: " + state_->error);
}

Status ShardClient::Finish() {
  if (finished_) {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->error.empty()
               ? Status::OK()
               : Status::Internal("shard worker failed: " + state_->error);
  }
  finished_ = true;
  const size_t shards = pool_->shards_.size();
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->finish_remaining = shards;
  }
  for (size_t s = 0; s < shards; ++s) {
    // Sentinels sit outside the call sequence; finish_remaining tracks
    // them instead.
    ExchangeRecord sentinel;
    sentinel.kind = ExchangeRecord::Kind::kFinish;
    PULSE_RETURN_IF_ERROR(Route(s, std::move(sentinel)));
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->finish_remaining == 0; });
  // Every record of this client was dispatched before its shard's
  // sentinel (FIFO per exchange queue), so the data merge is complete.
  // Canonical finish merge: append the per-shard finish tails, then
  // the core's finish sort the serial Finish applies. Each key lives on
  // exactly one shard, so same-key relative order is the shard's == the
  // serial runtime's, and the sort makes cross-key order identical.
  std::vector<Segment>& ready = state_->ready;
  const size_t tail = ready.size();
  for (std::vector<Segment>& part : state_->finish_outputs) {
    ready.insert(ready.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
    part.clear();
  }
  RuntimeCore::SortFinishTail(&ready, tail);
  if (!state_->error.empty()) {
    return Status::Internal("shard worker failed: " + state_->error);
  }
  return Status::OK();
}

std::vector<Segment> ShardClient::TakeOutputSegments() {
  std::lock_guard<std::mutex> lock(state_->mu);
  std::vector<Segment> out = std::move(state_->ready);
  state_->ready.clear();
  return out;
}

}  // namespace shard
}  // namespace pulse
