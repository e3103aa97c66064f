#include <algorithm>
#include <utility>

#include "core/predicate.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "store/checksum.h"
#include "workload/moving_object.h"
#include "workloads.h"

namespace e2e {

using namespace pulse;

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "serve_filter") return &RunServeFilter;
  if (name == "batch_join") return &RunBatchJoin;
  if (name == "predict_macd") return &RunPredictMacd;
  if (name == "ingest_durable") return &RunIngestDurable;
  return nullptr;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t HashSegments(const std::vector<Segment>& segments, uint64_t h) {
  for (const Segment& s : segments) h = store::CanonicalSegmentHash(s, h);
  return h;
}

QuerySpec MovingObjectFilterSpec(double threshold) {
  QuerySpec spec;
  (void)spec.AddStream(MovingObjectGenerator::MakeStreamSpec("objects", 5.0));
  FilterSpec filter;
  filter.predicate = Predicate::Comparison(ComparisonTerm::Simple(
      AttrRef::Left("x"), CmpOp::kLt, Operand::Constant(threshold)));
  spec.AddFilter("f", QuerySpec::Input::Stream("objects"), filter);
  return spec;
}

Result<std::unique_ptr<serve::ServeClient>> OpenSession(
    std::unique_ptr<serve::Transport> transport, const std::string& stream) {
  auto client = std::make_unique<serve::ServeClient>(std::move(transport));
  PULSE_RETURN_IF_ERROR(client->Hello());
  PULSE_RETURN_IF_ERROR(client->OpenStream(1, stream));
  return client;
}

Status SendDrain(serve::ServeClient* client) {
  return client->transport()->Write(
      serve::EncodeFrameToString(serve::Frame::Drain()));
}

Status ReadUntilDrained(
    serve::ServeClient* client,
    const std::function<uint64_t(Segment&&, int64_t)>& on_segment,
    SpanBuffer* spans, uint64_t parent) {
  for (;;) {
    const int64_t start = spans != nullptr ? NowNs() : 0;
    PULSE_ASSIGN_OR_RETURN(std::optional<serve::Frame> frame,
                           client->ReadFrame());
    const int64_t decoded = NowNs();
    if (!frame.has_value()) {
      return Status::IoError("connection closed before kDrained");
    }
    switch (frame->type) {
      case serve::FrameType::kOutputSegment:
        for (Segment& s : frame->segments) {
          const uint64_t request = on_segment(std::move(s), decoded);
          if (spans != nullptr) {
            spans->Add("serve.client_read", start, decoded, parent, request);
          }
        }
        break;
      case serve::FrameType::kFlow:
        if (frame->flow_event == serve::FlowEvent::kDroppedOldest ||
            frame->flow_event == serve::FlowEvent::kShed) {
          return Status::Internal("lossless serving lost input");
        }
        break;
      case serve::FrameType::kDrained:
        return Status::OK();
      case serve::FrameType::kError:
        return Status::Internal("server error: " + frame->text);
      default:
        return Status::IoError(std::string("unexpected frame ") +
                               serve::FrameTypeToString(frame->type));
    }
  }
}

void SetServerMetrics(const serve::StreamServer& server, double wall_s,
                      MetricSet* out) {
  const obs::MetricsSnapshot serve_snap = server.metrics()->Snapshot();
  const double accepted =
      static_cast<double>(CounterOf(serve_snap, "serve/queue/accepted"));
  out->Set("serve.tuples", accepted, "count");
  out->Set("serve.blocked_ns_per_tuple",
           Ratio(static_cast<double>(
                     CounterOf(serve_snap, "serve/queue/blocked_ns")),
                 accepted),
           "ns");
  out->Set("serve.admit_us_p99", HistOf(serve_snap, "span/serve/admit").p99 / 1e3,
           "us");
  out->Set("serve.batch_size_mean",
           Ratio(static_cast<double>(CounterOf(serve_snap, "serve/batch/tuples")),
                 static_cast<double>(
                     CounterOf(serve_snap, "serve/batch/dispatched"))),
           "tuples");

  const shard::ShardPool& pool = server.pool();
  std::vector<const obs::MetricsRegistry*> shard_regs;
  double max_in = 0, sum_in = 0, max_push_ns = 0;
  for (size_t i = 0; i < pool.num_shards(); ++i) {
    const obs::MetricsRegistry* reg = pool.shard_metrics(i);
    shard_regs.push_back(reg);
    const obs::MetricsSnapshot snap = reg->Snapshot();
    // Items in: tuples, or segments when they arrive already fitted.
    const double in = static_cast<double>(
        std::max(CounterOf(snap, "runtime/tuples_in"),
                 CounterOf(snap, "runtime/segments_pushed")));
    max_in = std::max(max_in, in);
    sum_in += in;
    max_push_ns = std::max(
        max_push_ns,
        static_cast<double>(HistOf(snap, "span/runtime/push_segment").sum));
  }
  out->Set("shard.imbalance",
           Ratio(max_in, sum_in / static_cast<double>(pool.num_shards())),
           "ratio");
  out->Set("shard.push_busy_frac", Ratio(max_push_ns / 1e9, wall_s),
           "fraction");
  obs::MetricsRegistry rollup;
  obs::MetricsRegistry::Rollup(shard_regs, &rollup);
  const obs::MetricsSnapshot snap = rollup.Snapshot();
  const double tuples = static_cast<double>(CounterOf(snap, "runtime/tuples_in"));
  const double segments =
      static_cast<double>(CounterOf(snap, "runtime/segments_pushed"));
  out->Set("model.segments", segments, "count");
  out->Set("model.tuples_per_segment", Ratio(tuples, segments), "tuples");
  SetSolverMetrics(snap, tuples, out);
}

}  // namespace e2e
