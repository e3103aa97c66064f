#include "serve/session.h"

#include <algorithm>
#include <utility>

#include "obs/span.h"
#include "store/store.h"

namespace pulse {
namespace serve {

namespace {

// The solver-latency signal the controller samples. An adaptive session
// reads its own runtime's span. A static session reads every shard's,
// summed when sampled: sessions share the shard pool, so overload is a
// property of the pool, not of one session.
std::vector<const obs::Histogram*> SolverLatency(
    const shard::ShardClient* client, const AdaptiveRuntime* adaptive) {
  if (adaptive != nullptr) {
    return {adaptive->metrics()->GetHistogram("span/runtime/push_segment")};
  }
  std::vector<const obs::Histogram*> histograms;
  const shard::ShardPool& pool = *client->pool();
  for (size_t i = 0; i < pool.num_shards(); ++i) {
    histograms.push_back(
        pool.shard_metrics(i)->GetHistogram("span/runtime/push_segment"));
  }
  return histograms;
}

}  // namespace

Session::Session(uint64_t id, std::unique_ptr<Transport> transport,
                 std::unique_ptr<shard::ShardClient> client,
                 SessionOptions options,
                 std::vector<std::string> valid_streams,
                 obs::MetricsRegistry* serve_metrics,
                 store::SegmentStore* store,
                 std::unique_ptr<AdaptiveRuntime> adaptive)
    : id_(id),
      transport_(std::move(transport)),
      client_(std::move(client)),
      adaptive_(std::move(adaptive)),
      options_(options),
      valid_streams_(std::move(valid_streams)),
      serve_metrics_(serve_metrics),
      store_(store),
      admission_(options.admission, options.precision,
                 SolverLatency(client_.get(), adaptive_.get())),
      queue_(options.queue_capacity, &signal_) {
  // The worker sleeps on signal_ when its queue is empty; the pool
  // wakes it there when the shards release outputs, so they are written
  // without waiting for the next admission.
  if (client_ != nullptr) client_->SetReleaseSignal(&signal_);
  c_accepted_ = serve_metrics_->GetCounter("serve/queue/accepted");
  c_dropped_ = serve_metrics_->GetCounter("serve/queue/dropped");
  c_shed_ = serve_metrics_->GetCounter("serve/queue/shed");
  c_blocked_ns_ = serve_metrics_->GetCounter("serve/queue/blocked_ns");
  g_depth_ = serve_metrics_->GetGauge("serve/queue/depth");
  c_batch_dispatched_ = serve_metrics_->GetCounter("serve/batch/dispatched");
  c_batch_tuples_ = serve_metrics_->GetCounter("serve/batch/tuples");
  c_batch_segments_ = serve_metrics_->GetCounter("serve/batch/segments");
  c_shed_queue_ = serve_metrics_->GetCounter("serve/admission/shed_queue");
  c_shed_latency_ =
      serve_metrics_->GetCounter("serve/admission/shed_latency");
  c_overloaded_ = serve_metrics_->GetCounter("serve/admission/overloaded");
  if (adaptive_ != nullptr) {
    c_provisional_ = serve_metrics_->GetCounter("precision/provisional");
    c_confirmed_ = serve_metrics_->GetCounter("precision/confirmed");
    c_retracted_ = serve_metrics_->GetCounter("precision/retracted");
    c_widened_ = serve_metrics_->GetCounter("precision/widened");
    c_tightened_ = serve_metrics_->GetCounter("precision/tightened");
    c_deferred_ = serve_metrics_->GetCounter("precision/deferred_items");
    c_replayed_ = serve_metrics_->GetCounter("precision/replayed_items");
    c_retract_deviation_ =
        serve_metrics_->GetCounter("retract/deviation");
    c_retract_spurious_ = serve_metrics_->GetCounter("retract/spurious");
    g_tier_ = serve_metrics_->GetGauge("precision/tier");
    g_open_ = serve_metrics_->GetGauge("precision/open");
  }
}

Session::~Session() {
  Abort();
  Join();
}

void Session::Start() {
  reader_ = std::thread([this] { ReaderLoop(); });
  worker_ = std::thread([this] { WorkerLoop(); });
}

bool Session::finished() const {
  return reader_done_.load() && worker_done_.load();
}

void Session::Join() {
  std::lock_guard<std::mutex> lock(join_mu_);
  if (joined_) return;
  if (reader_.joinable()) reader_.join();
  if (worker_.joinable()) worker_.join();
  joined_ = true;
}

void Session::BeginDrain() {
  accepting_.store(false);
  queue_.Close();
  drain_requested_.store(true);
  signal_.Notify();
}

void Session::Abort() {
  if (stop_.exchange(true)) return;
  accepting_.store(false);
  queue_.Close();
  // Drop this session's queued shard work too — hard stop discards.
  if (client_ != nullptr) client_->Abort();
  transport_->Close();
  signal_.Notify();
}

std::string Session::error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return error_;
}

void Session::RecordFatal(const Status& status) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (error_.empty()) error_ = status.ToString();
}

Status Session::WriteFrame(const Frame& frame) {
  std::lock_guard<std::mutex> lock(write_mu_);
  write_buf_.clear();
  EncodeFrame(frame, &write_buf_);
  return transport_->Write(write_buf_);
}

Status Session::FlushOutputs() {
  std::vector<Segment> outputs;
  std::vector<ProvisionalRecord> provisionals;
  std::vector<VerdictRecord> verdicts;
  if (adaptive_ != nullptr) {
    outputs = adaptive_->TakeSettledOutputs();
    provisionals = adaptive_->TakeProvisionals();
    verdicts = adaptive_->TakeVerdicts();
    // The runtime-side events since the last flush, added to the
    // server-wide counters so that they sum over sessions.
    const PrecisionStats& stats = adaptive_->stats();
    c_widened_->Add(stats.widen_events - flushed_stats_.widen_events);
    c_tightened_->Add(stats.tighten_events - flushed_stats_.tighten_events);
    c_deferred_->Add(stats.deferred_items - flushed_stats_.deferred_items);
    c_replayed_->Add(stats.replayed_items - flushed_stats_.replayed_items);
    flushed_stats_ = stats;
    if (outputs.empty() && provisionals.empty() && verdicts.empty()) {
      return Status::OK();
    }
  } else {
    outputs = client_->TakeOutputSegments();
    if (outputs.empty()) return Status::OK();
  }
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    write_buf_.clear();
    // Settled outputs ride the same kOutputSegment frames as a static
    // session — only the provisional/verdict side-band is new, so the
    // settled stream stays byte-comparable across precision modes.
    for (const Segment& segment : outputs) {
      EncodeFrame(Frame::OutputSegment(segment), &write_buf_);
    }
    for (const ProvisionalRecord& record : provisionals) {
      EncodeFrame(Frame::Provisional(record.lineage, record.bound,
                                     record.segment),
                  &write_buf_);
    }
    for (const VerdictRecord& verdict : verdicts) {
      EncodeFrame(verdict.confirmed
                      ? Frame::Confirm(verdict.lineage)
                      : Frame::Retract(
                            verdict.lineage,
                            static_cast<uint8_t>(verdict.reason)),
                  &write_buf_);
    }
    PULSE_RETURN_IF_ERROR(transport_->Write(write_buf_));
  }
  // The watermark advances only after the transport accepted the
  // bytes: a crash between write and note redelivers (at-least-once),
  // never suppresses an output the client did not see.
  if (store_ != nullptr) {
    for (const Segment& segment : outputs) store_->NoteDelivered(segment);
  }
  if (adaptive_ != nullptr) {
    c_provisional_->Add(provisionals.size());
    for (const VerdictRecord& verdict : verdicts) {
      if (verdict.confirmed) {
        c_confirmed_->Increment();
      } else {
        c_retracted_->Increment();
        (verdict.reason == RetractReason::kDeviation
             ? c_retract_deviation_
             : c_retract_spurious_)
            ->Increment();
      }
    }
    // One session's levels: with several adaptive sessions these gauges
    // show whichever flushed last (docs/PRECISION.md).
    g_tier_->Set(static_cast<double>(adaptive_->tier()));
    g_open_->Set(static_cast<double>(adaptive_->stats().open()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Reader: transport bytes -> frames -> admission -> queues.

void Session::ReaderLoop() {
  // Serve-side spans (serve/admit) land in the server-wide registry,
  // not the session runtime's.
  obs::ScopedMetricsRegistry scoped(serve_metrics_);
  FrameReader frames;
  char buf[8192];
  bool reader_exit = false;
  while (!reader_exit && !stop_.load()) {
    Result<size_t> got = transport_->Read(buf, sizeof(buf));
    if (!got.ok()) {
      if (!stop_.load()) RecordFatal(got.status());
      break;
    }
    if (*got == 0) break;  // clean EOF
    Status status = frames.Feed(buf, *got);
    while (status.ok()) {
      Result<std::optional<Frame>> next = frames.Next();
      if (!next.ok()) {
        status = next.status();
        break;
      }
      if (!next->has_value()) break;
      Frame frame = std::move(**next);
      const bool was_bye = frame.type == FrameType::kBye;
      status = HandleFrame(std::move(frame));
      if (was_bye) {
        reader_exit = true;
        break;
      }
    }
    if (!status.ok()) {
      RecordFatal(status);
      (void)WriteFrame(Frame::Error(status.message()));
      Abort();
      break;
    }
  }
  // No more input will ever be admitted: whatever the exit reason
  // (EOF, kBye, error, abort), close the queue and let the worker
  // finish what was accepted.
  BeginDrain();
  reader_done_.store(true);
  signal_.Notify();
}

Status Session::HandleFrame(Frame frame) {
  if (!saw_hello_ && frame.type != FrameType::kHello) {
    return Status::FailedPrecondition(
        "protocol: first frame must be hello");
  }
  switch (frame.type) {
    case FrameType::kHello:
      if (saw_hello_) {
        return Status::FailedPrecondition("protocol: duplicate hello");
      }
      if (frame.version != kProtocolVersion) {
        return Status::InvalidArgument(
            "protocol version " + std::to_string(frame.version) +
            " unsupported (want " + std::to_string(kProtocolVersion) + ")");
      }
      saw_hello_ = true;
      return Status::OK();
    case FrameType::kOpenStream: {
      const auto it = std::find(valid_streams_.begin(), valid_streams_.end(),
                                frame.text);
      if (it == valid_streams_.end()) {
        return Status::NotFound("unknown stream '" + frame.text + "'");
      }
      const uint32_t index =
          static_cast<uint32_t>(it - valid_streams_.begin());
      if (!open_streams_.emplace(frame.stream_id, index).second) {
        return Status::AlreadyExists(
            "stream id " + std::to_string(frame.stream_id) +
            " already open");
      }
      return Status::OK();
    }
    case FrameType::kTuple:
    case FrameType::kTupleBatch:
    case FrameType::kSegment:
      return AdmitData(std::move(frame));
    case FrameType::kDrain:
      client_drain_.store(true);
      BeginDrain();
      return Status::OK();
    case FrameType::kBye:
      // Orderly goodbye without a drain barrier: admitted items still
      // get processed (the reader exit path drains), but no kDrained
      // acknowledgment is owed.
      return Status::OK();
    default:
      return Status::InvalidArgument(
          std::string("protocol: unexpected client frame ") +
          FrameTypeToString(frame.type));
  }
}

Status Session::AdmitData(Frame frame) {
  const uint64_t items =
      static_cast<uint64_t>(frame.tuples.size() + frame.segments.size());
  if (!accepting_.load()) {
    // Draining or shutting down: refuse politely (not a protocol
    // error — the client may legitimately race its last sends against
    // a server-initiated drain).
    c_shed_->Add(items);
    return WriteFrame(
        Frame::Flow(frame.stream_id, FlowEvent::kShed, items));
  }
  const auto open = open_streams_.find(frame.stream_id);
  if (open == open_streams_.end()) {
    return Status::FailedPrecondition(
        "stream id " + std::to_string(frame.stream_id) + " not open");
  }
  if (items == 0) return Status::OK();
  const std::string& stream = valid_streams_[open->second];

  PULSE_SPAN("serve/admit");
  const size_t depth = queue_.weight();
  const size_t capacity = queue_.capacity();
  // One controller call decides the shed and, for an adaptive session,
  // the precision tier (docs/PRECISION.md).
  const AdmitOutcome admit = admission_.Admit(depth, capacity);
  const bool overloaded = admission_.overloaded();
  if (overloaded && !admission_overloaded_prev_) {
    c_overloaded_->Increment();
  }
  admission_overloaded_prev_ = overloaded;
  if (admit.decision != AdmitDecision::kAdmit) {
    (admit.decision == AdmitDecision::kShedQueue ? c_shed_queue_
                                                 : c_shed_latency_)
        ->Add(items);
    c_shed_->Add(items);
    return WriteFrame(
        Frame::Flow(frame.stream_id, FlowEvent::kShed, items));
  }

  // Durable mode: the log append precedes the enqueue, so an item is
  // never dispatched to a runtime without first being on disk — the
  // property the kill-and-restore differential depends on. An append
  // failure is fatal to the session (better to drop the connection
  // than to process input that recovery could not replay).
  if (store_ != nullptr) {
    for (const Tuple& tuple : frame.tuples) {
      PULSE_RETURN_IF_ERROR(store_->AppendTuple(stream, tuple));
    }
    for (const Segment& segment : frame.segments) {
      PULSE_RETURN_IF_ERROR(store_->AppendSegment(stream, segment));
    }
  }

  // The admitted tier is stamped onto the frame's item, so the worker
  // applies tier changes at exact admission-order boundaries
  // (docs/PRECISION.md). A frame never straddles a tier change.
  IngestItem item;
  item.stream = open->second;
  item.tier = static_cast<uint8_t>(admit.tier);
  item.tuples = std::move(frame.tuples);
  item.segments = std::move(frame.segments);
  PULSE_RETURN_IF_ERROR(Enqueue(frame.stream_id, std::move(item)));
  g_depth_->Set(static_cast<double>(depth + items));
  return Status::OK();
}

Status Session::Enqueue(uint32_t stream_id, IngestItem item) {
  const uint64_t n = item.weight();
  uint64_t dropped = 0;
  switch (queue_.TryPush(&item, options_.policy, &dropped)) {
    case PushResult::kAccepted:
      c_accepted_->Add(n);
      return Status::OK();
    case PushResult::kDroppedOldest:
      c_accepted_->Add(n);
      c_dropped_->Add(dropped);
      return WriteFrame(
          Frame::Flow(stream_id, FlowEvent::kDroppedOldest, dropped));
    case PushResult::kShed:
    case PushResult::kClosed:
      c_shed_->Add(n);
      return WriteFrame(Frame::Flow(stream_id, FlowEvent::kShed, n));
    case PushResult::kWouldBlock:
      break;
  }
  // kBlock slow path: tell the client it is paused, wait for room,
  // tell it to resume — one pair per blocked frame. The pause itself is
  // what pushes backpressure through the transport — while we block
  // here, no further client bytes are read, so the client's own sends
  // eventually block too.
  PULSE_RETURN_IF_ERROR(WriteFrame(
      Frame::Flow(stream_id, FlowEvent::kPaused, queue_.weight())));
  uint64_t blocked_ns = 0;
  const bool pushed = queue_.PushBlocking(std::move(item), &blocked_ns);
  c_blocked_ns_->Add(blocked_ns);
  if (!pushed) {
    c_shed_->Add(n);
    return WriteFrame(Frame::Flow(stream_id, FlowEvent::kShed, n));
  }
  c_accepted_->Add(n);
  return WriteFrame(Frame::Flow(stream_id, FlowEvent::kResumed, 0));
}

// ---------------------------------------------------------------------
// Worker: queue -> runs of frames -> runtime -> output frames.

void Session::WorkerLoop() {
  for (;;) {
    if (stop_.load()) break;
    const uint64_t epoch = signal_.epoch();
    // Read the drain flag before popping, never after: it is stored
    // only after the queue is closed, so once it reads true the pop
    // below sees every item that will ever be admitted. Read after the
    // pop, it could report a drain whose final items the pop missed.
    // The epoch comes first, so a drain landing after it still ends the
    // Wait below.
    const bool draining = drain_requested_.load();
    popped_.clear();
    if (!queue_.PopAll(&popped_)) {
      if (draining || stop_.load()) break;
      // Idle: write what the shards released since the last dispatch.
      // A release after this flush moves the epoch, ending the Wait.
      const Status flushed = FlushOutputs();
      if (flushed.ok()) {
        signal_.Wait(epoch);
        continue;
      }
      RecordFatal(flushed);
      (void)WriteFrame(Frame::Error(flushed.message()));
      Abort();
      break;
    }
    const Status status = Dispatch(&popped_);
    if (!status.ok()) {
      RecordFatal(status);
      (void)WriteFrame(Frame::Error(status.message()));
      Abort();
      break;
    }
  }

  // Drain epilogue: flush residual operator state on every shard and
  // deliver the last outputs. Skipped on Abort (hard stop discards).
  // In adaptive mode Finish also settles every open provisional, so
  // the final flush carries the last confirm/retract verdicts.
  if (!stop_.load()) {
    Status status =
        adaptive_ != nullptr ? adaptive_->Finish() : client_->Finish();
    if (status.ok()) status = FlushOutputs();
    if (status.ok() && client_drain_.load()) {
      status = WriteFrame(Frame::Drained());
    }
    if (!status.ok()) RecordFatal(status);
  }
  worker_done_.store(true);
  // Wakes a reader still blocked on a dead peer and signals EOF to the
  // client after kDrained.
  transport_->Close();
}

Status Session::Dispatch(std::vector<IngestItem>* items) {
  size_t i = 0;
  while (i < items->size() && !stop_.load()) {
    IngestItem& head = (*items)[i];
    const std::string& stream = valid_streams_[head.stream];
    // Adaptive sessions apply the admission-stamped tier at the item
    // boundary, before the item itself is dispatched.
    if (adaptive_ != nullptr) {
      PULSE_RETURN_IF_ERROR(adaptive_->SetTier(head.tier));
    }
    if (!head.segments.empty()) {
      for (Segment& segment : head.segments) {
        PULSE_RETURN_IF_ERROR(
            adaptive_ != nullptr
                ? adaptive_->ProcessSegment(stream, std::move(segment))
                : client_->ProcessSegment(stream, std::move(segment)));
        c_batch_segments_->Increment();
      }
      ++i;
    } else {
      // Frames join the run while they continue it: same stream, same
      // tier, tuples only. A lone frame is dispatched from its own
      // vector; a longer run is joined into run_ first.
      size_t end = i + 1;
      while (end < items->size() && (*items)[end].segments.empty() &&
             (*items)[end].stream == head.stream &&
             (*items)[end].tier == head.tier) {
        ++end;
      }
      std::vector<Tuple>* batch = &head.tuples;
      if (end - i > 1) {
        run_.clear();
        for (size_t k = i; k < end; ++k) {
          for (Tuple& tuple : (*items)[k].tuples) {
            run_.push_back(std::move(tuple));
          }
        }
        batch = &run_;
      }
      PULSE_RETURN_IF_ERROR(
          adaptive_ != nullptr
              ? adaptive_->ProcessTuples(stream, batch->data(),
                                         batch->size())
              : client_->ProcessTuples(stream, batch->data(),
                                       batch->size()));
      c_batch_dispatched_->Increment();
      c_batch_tuples_->Add(batch->size());
      i = end;
    }
    PULSE_RETURN_IF_ERROR(FlushOutputs());
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace pulse
