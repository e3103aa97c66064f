#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/runtime.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/frame.h"
#include "serve/ingest_queue.h"
#include "serve/server.h"
#include "serve/tcp_transport.h"
#include "serve/transport.h"
#include "store/recovery.h"
#include "store/store.h"
#include "workload/moving_object.h"
#include "workload/replay.h"

namespace pulse {
namespace serve {
namespace {

// ---------------------------------------------------------------------
// Shared fixtures: the runtime_test filter query over the moving-object
// stream (fields id, x, y, vx, vy).

QuerySpec FilterQuerySpec(double threshold) {
  QuerySpec spec;
  EXPECT_TRUE(
      spec.AddStream(MovingObjectGenerator::MakeStreamSpec("objects", 5.0))
          .ok());
  FilterSpec filter;
  filter.predicate = Predicate::Comparison(ComparisonTerm::Simple(
      AttrRef::Left("x"), CmpOp::kLt, Operand::Constant(threshold)));
  spec.AddFilter("f", QuerySpec::Input::Stream("objects"), filter);
  return spec;
}

Tuple ObjectTuple(double ts, int64_t id, double x, double vx) {
  return Tuple(ts,
               {Value(id), Value(x), Value(0.0), Value(vx), Value(0.0)});
}

// Piecewise-linear x trace that makes the segmenter emit several pieces.
std::vector<Tuple> PiecewiseTrace(int n) {
  std::vector<Tuple> trace;
  trace.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double t = i * 0.05;
    const double x = t < 7.5 ? 2.0 * t : 30.0 - 2.0 * t;
    trace.push_back(ObjectTuple(t, 1, x, 0.0));
  }
  return trace;
}

ServerOptions ObjectsServerOptions(BackpressurePolicy policy) {
  ServerOptions options;
  options.spec = FilterQuerySpec(100.0);
  options.runtime.segmentation.degree = 1;
  options.runtime.segmentation.max_error = 0.05;
  options.session.policy = policy;
  options.session.admission.enabled = false;
  return options;
}

void ExpectSameSegments(const std::vector<Segment>& a,
                        const std::vector<Segment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].range.lo, b[i].range.lo);
    EXPECT_EQ(a[i].range.hi, b[i].range.hi);
    EXPECT_EQ(a[i].range.lo_open, b[i].range.lo_open);
    EXPECT_EQ(a[i].range.hi_open, b[i].range.hi_open);
    ASSERT_EQ(a[i].attributes.size(), b[i].attributes.size());
    for (const auto& [name, poly] : a[i].attributes) {
      auto it = b[i].attributes.find(name);
      ASSERT_NE(it, b[i].attributes.end()) << name;
      ASSERT_EQ(poly.IsZero(), it->second.IsZero()) << name;
      ASSERT_EQ(poly.degree(), it->second.degree()) << name;
      for (size_t k = 0; k <= poly.degree(); ++k) {
        EXPECT_EQ(poly.coeff(k), it->second.coeff(k))
            << name << " coeff " << k;
      }
    }
    EXPECT_EQ(a[i].unmodeled, b[i].unmodeled);
  }
}

// ---------------------------------------------------------------------
// Frame codec.

TEST(FrameCodec, TupleRoundTripIsBitExact) {
  Tuple t(0.1 + 0.2,  // not representable exactly: catches re-parsing
          {Value(int64_t{-42}), Value(1e-308), Value(std::string("hi")),
           Value(-0.0)});
  Frame in = Frame::OneTuple(7, t);
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(EncodeFrameToString(in)).ok());
  Result<std::optional<Frame>> out = reader.Next();
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->has_value());
  EXPECT_EQ((*out)->type, FrameType::kTuple);
  EXPECT_EQ((*out)->stream_id, 7u);
  ASSERT_EQ((*out)->tuples.size(), 1u);
  const Tuple& got = (*out)->tuples[0];
  // Bit patterns, not approximate equality: the serving differential
  // depends on the codec being exact.
  EXPECT_EQ(got.timestamp, t.timestamp);
  ASSERT_EQ(got.values.size(), t.values.size());
  EXPECT_EQ(got.values[0].as_int64(), -42);
  EXPECT_EQ(got.values[1].as_double(), 1e-308);
  EXPECT_EQ(got.values[2].as_string(), "hi");
  EXPECT_TRUE(std::signbit(got.values[3].as_double()));
}

TEST(FrameCodec, SegmentRoundTripPreservesEverything) {
  Segment s(-3, Interval::ClosedOpen(1.5, 2.5));
  s.range.lo_open = true;
  s.range.hi_open = false;
  s.id = 12345;
  s.set_attribute("x", Polynomial({0.1, -2.0, 3.5}));
  s.set_attribute("zero", Polynomial());  // must stay IsZero()
  s.unmodeled["c"] = 4.25;
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(EncodeFrameToString(Frame::OneSegment(1, s))).ok());
  Result<std::optional<Frame>> out = reader.Next();
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->has_value());
  ASSERT_EQ((*out)->segments.size(), 1u);
  const Segment& got = (*out)->segments[0];
  EXPECT_EQ(got.key, -3);
  EXPECT_EQ(got.id, 12345u);
  EXPECT_EQ(got.range.lo, 1.5);
  EXPECT_EQ(got.range.hi, 2.5);
  EXPECT_TRUE(got.range.lo_open);
  EXPECT_FALSE(got.range.hi_open);
  ASSERT_EQ(got.attributes.size(), 2u);
  EXPECT_TRUE(got.attributes.at("zero").IsZero());
  EXPECT_EQ(got.attributes.at("x").coeff(2), 3.5);
  EXPECT_EQ(got.unmodeled.at("c"), 4.25);
}

TEST(FrameCodec, AllControlFramesRoundTrip) {
  const Frame frames[] = {Frame::Hello(),
                          Frame::OpenStream(9, "objects"),
                          Frame::Flow(2, FlowEvent::kDroppedOldest, 17),
                          Frame::Drain(),
                          Frame::Drained(),
                          Frame::Error("boom"),
                          Frame::Bye()};
  FrameReader reader;
  for (const Frame& f : frames) {
    ASSERT_TRUE(reader.Feed(EncodeFrameToString(f)).ok());
  }
  for (const Frame& f : frames) {
    Result<std::optional<Frame>> out = reader.Next();
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out->has_value());
    EXPECT_EQ((*out)->type, f.type);
  }
  // Exactly consumed.
  Result<std::optional<Frame>> out = reader.Next();
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->has_value());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameCodec, ByteAtATimeFeedingReassembles) {
  const std::string bytes =
      EncodeFrameToString(Frame::OpenStream(3, "objects"));
  FrameReader reader;
  for (size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_TRUE(reader.Feed(bytes.data() + i, 1).ok());
    Result<std::optional<Frame>> out = reader.Next();
    ASSERT_TRUE(out.ok());
    if (i + 1 < bytes.size()) {
      EXPECT_FALSE(out->has_value());
    } else {
      ASSERT_TRUE(out->has_value());
      EXPECT_EQ((*out)->text, "objects");
    }
  }
}

TEST(FrameCodec, TruncatedPayloadPoisonsReader) {
  std::string bytes = EncodeFrameToString(Frame::Error("some message"));
  // Shrink the payload but keep the length prefix: the declared payload
  // now ends mid-string.
  bytes[0] = static_cast<char>(bytes.size() - 4 - 3);
  bytes.resize(bytes.size() - 3);
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(bytes).ok());
  EXPECT_FALSE(reader.Next().ok());
  // Sticky: both Next and Feed fail afterwards.
  EXPECT_FALSE(reader.Next().ok());
  EXPECT_FALSE(reader.Feed("x", 1).ok());
}

TEST(FrameCodec, OversizedFrameRejectedBeforeBuffering) {
  FrameReader reader;
  std::string bytes;
  // Length prefix claims 1 GiB, far above wire::kMaxPayloadBytes.
  const uint32_t huge = 1u << 30;
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>(huge >> (8 * i)));
  }
  ASSERT_TRUE(reader.Feed(bytes).ok());
  EXPECT_FALSE(reader.Next().ok());
}

TEST(FrameCodec, TrailingBytesInPayloadRejected) {
  std::string bytes = EncodeFrameToString(Frame::Drain());
  // Extend the payload by one byte (and the prefix accordingly).
  bytes.push_back('\0');
  bytes[0] = static_cast<char>(2);
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(bytes).ok());
  EXPECT_FALSE(reader.Next().ok());
}

TEST(FrameCodec, UnknownFrameTypeRejected) {
  std::string bytes;
  bytes.push_back(1);  // length 1
  bytes.push_back(0);
  bytes.push_back(0);
  bytes.push_back(0);
  bytes.push_back(static_cast<char>(0xEE));  // bogus type
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(bytes).ok());
  EXPECT_FALSE(reader.Next().ok());
}

// ---------------------------------------------------------------------
// Ingest queue policies: items are whole frames, capacity counts tuples.

// A frame item of `n` tuples, its first tuple stamped with `tag`.
IngestItem FrameItem(size_t n, double tag) {
  IngestItem item;
  for (size_t i = 0; i < n; ++i) {
    item.tuples.push_back(ObjectTuple(tag + 0.001 * i, 1, 0.0, 0.0));
  }
  return item;
}

// The first-tuple tags of every queued item, in queue order.
std::vector<double> PopTags(IngestQueue* q) {
  std::vector<IngestItem> items;
  q->PopAll(&items);
  std::vector<double> tags;
  for (const IngestItem& item : items) {
    tags.push_back(item.tuples.front().timestamp);
  }
  return tags;
}

TEST(IngestQueue, ShedRejectsWhenFull) {
  IngestQueue q(8, nullptr);
  IngestItem a = FrameItem(4, 0), b = FrameItem(4, 1), c = FrameItem(1, 2);
  EXPECT_EQ(q.TryPush(&a, BackpressurePolicy::kShed, nullptr),
            PushResult::kAccepted);
  EXPECT_EQ(q.TryPush(&b, BackpressurePolicy::kShed, nullptr),
            PushResult::kAccepted);
  // One more tuple does not fit: the whole frame is rejected and left
  // with the caller.
  EXPECT_EQ(q.TryPush(&c, BackpressurePolicy::kShed, nullptr),
            PushResult::kShed);
  EXPECT_EQ(c.tuples.size(), 1u);
  EXPECT_EQ(q.weight(), 8u);
  EXPECT_EQ(PopTags(&q), (std::vector<double>{0, 1}));  // oldest survive
  EXPECT_EQ(q.weight(), 0u);
}

TEST(IngestQueue, DropOldestEvictsHead) {
  IngestQueue q(8, nullptr);
  IngestItem a = FrameItem(3, 0), b = FrameItem(3, 1), c = FrameItem(4, 2);
  ASSERT_EQ(q.TryPush(&a, BackpressurePolicy::kDropOldest, nullptr),
            PushResult::kAccepted);
  ASSERT_EQ(q.TryPush(&b, BackpressurePolicy::kDropOldest, nullptr),
            PushResult::kAccepted);
  // 3 + 3 + 4 > 8: the oldest frame goes whole, and `dropped` counts
  // its tuples, not frames.
  uint64_t dropped = 0;
  EXPECT_EQ(q.TryPush(&c, BackpressurePolicy::kDropOldest, &dropped),
            PushResult::kDroppedOldest);
  EXPECT_EQ(dropped, 3u);
  EXPECT_EQ(q.weight(), 7u);
  // A 6-tuple frame needs both remaining frames gone.
  IngestItem d = FrameItem(6, 3);
  EXPECT_EQ(q.TryPush(&d, BackpressurePolicy::kDropOldest, &dropped),
            PushResult::kDroppedOldest);
  EXPECT_EQ(dropped, 7u);
  EXPECT_EQ(PopTags(&q), (std::vector<double>{3}));  // newest survives
}

TEST(IngestQueue, OversizedFrameEntersEmptyQueue) {
  IngestQueue q(4, nullptr);
  IngestItem big = FrameItem(10, 0);
  EXPECT_EQ(q.TryPush(&big, BackpressurePolicy::kShed, nullptr),
            PushResult::kAccepted);
  EXPECT_EQ(q.weight(), 10u);
  // Over capacity now, so nothing else fits until the consumer pops.
  IngestItem one = FrameItem(1, 1);
  EXPECT_EQ(q.TryPush(&one, BackpressurePolicy::kShed, nullptr),
            PushResult::kShed);
  EXPECT_EQ(q.TryPush(&one, BackpressurePolicy::kBlock, nullptr),
            PushResult::kWouldBlock);
  EXPECT_EQ(PopTags(&q), (std::vector<double>{0}));
  IngestItem again = FrameItem(10, 2);
  EXPECT_EQ(q.TryPush(&again, BackpressurePolicy::kBlock, nullptr),
            PushResult::kAccepted);
}

TEST(IngestQueue, BlockPolicyWaitsForConsumer) {
  WorkSignal signal;
  IngestQueue q(4, &signal);
  IngestItem a = FrameItem(4, 0), b = FrameItem(2, 1);
  ASSERT_EQ(q.TryPush(&a, BackpressurePolicy::kBlock, nullptr),
            PushResult::kAccepted);
  EXPECT_EQ(q.TryPush(&b, BackpressurePolicy::kBlock, nullptr),
            PushResult::kWouldBlock);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    uint64_t blocked_ns = 0;
    EXPECT_TRUE(q.PushBlocking(std::move(b), &blocked_ns));
    pushed.store(true);
  });
  std::vector<IngestItem> out;
  ASSERT_TRUE(q.PopAll(&out));
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].tuples.front().timestamp, 0.0);
  producer.join();
  EXPECT_TRUE(pushed.load());
  ASSERT_TRUE(q.PopAll(&out));  // appends after what `out` holds
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].tuples.front().timestamp, 1.0);
  EXPECT_EQ(out[1].weight(), 2u);
}

TEST(IngestQueue, CloseUnblocksProducerAndKeepsItemsPoppable) {
  IngestQueue q(4, nullptr);
  IngestItem a = FrameItem(4, 0);
  ASSERT_EQ(q.TryPush(&a, BackpressurePolicy::kBlock, nullptr),
            PushResult::kAccepted);
  std::thread producer([&] {
    // Closed while full.
    EXPECT_FALSE(q.PushBlocking(FrameItem(1, 1), nullptr));
  });
  // Give the producer a moment to block, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  producer.join();
  // Drain still sees the admitted frame.
  EXPECT_EQ(PopTags(&q), (std::vector<double>{0}));
  IngestItem c = FrameItem(1, 2);
  EXPECT_EQ(q.TryPush(&c, BackpressurePolicy::kBlock, nullptr),
            PushResult::kClosed);
}

// ---------------------------------------------------------------------
// Admission controller.

AdmissionController ShedController(
    std::vector<const obs::Histogram*> latency = {}) {
  return AdmissionController(AdmissionOptions{}, PrecisionOptions{},
                             std::move(latency));
}

TEST(AdmissionController, QueueWatermarkHysteresis) {
  AdmissionController controller = ShedController();
  EXPECT_EQ(controller.Admit(10, 100).decision, AdmitDecision::kAdmit);
  // Above the shed watermark (0.90).
  EXPECT_EQ(controller.Admit(95, 100).decision, AdmitDecision::kShedQueue);
  // Still above the recover watermark (0.50): keeps shedding
  // (hysteresis).
  EXPECT_EQ(controller.Admit(60, 100).decision, AdmitDecision::kShedQueue);
  // Below the recover watermark: recovers.
  EXPECT_EQ(controller.Admit(30, 100).decision, AdmitDecision::kAdmit);
  EXPECT_FALSE(controller.overloaded());
}

// The decision on the last of one sampling period's admissions, the
// one that re-samples the latency signal.
AdmitDecision AdmitSamplingPeriod(AdmissionController* controller) {
  AdmitDecision decision = AdmitDecision::kAdmit;
  for (uint64_t i = 0; i < kLatencySampleEvery; ++i) {
    decision = controller->Admit(0, 100).decision;
  }
  return decision;
}

// The signal is the sum over every histogram the controller reads (one
// per shard when serving), so slow samples on only one of two shards
// still trip it.
TEST(AdmissionController, LatencySignalShedsAndRecovers) {
  for (const size_t histograms : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(std::to_string(histograms) + " histogram(s)");
    obs::MetricsRegistry registry;
    std::vector<const obs::Histogram*> latency;
    for (size_t i = 0; i < histograms; ++i) {
      latency.push_back(registry.GetHistogram(
          "shard/" + std::to_string(i) + "/span/runtime/push_segment"));
    }
    obs::Histogram* h = registry.GetHistogram(
        "shard/" + std::to_string(histograms - 1) +
        "/span/runtime/push_segment");
    AdmissionController controller = ShedController(latency);
    EXPECT_EQ(AdmitSamplingPeriod(&controller), AdmitDecision::kAdmit);
    // Slow solver: p99 over the next interval far above the shed
    // threshold (50 ms).
    for (int i = 0; i < 100; ++i) h->Record(100'000'000);
    EXPECT_EQ(AdmitSamplingPeriod(&controller), AdmitDecision::kShedLatency);
    EXPECT_TRUE(controller.overloaded());
    // Fast again: interval p99 drops under the recover threshold (10 ms).
    for (int i = 0; i < 100; ++i) h->Record(1'000);
    EXPECT_EQ(AdmitSamplingPeriod(&controller), AdmitDecision::kAdmit);
    // Idle solver (no new samples): stays recovered.
    EXPECT_EQ(AdmitSamplingPeriod(&controller), AdmitDecision::kAdmit);
  }
}

TEST(AdmissionController, DisabledAdmitsEverything) {
  AdmissionOptions options;
  options.enabled = false;
  AdmissionController controller(options, PrecisionOptions{}, {});
  EXPECT_EQ(controller.Admit(100, 100).decision, AdmitDecision::kAdmit);
}

// Precision sits below load shedding: between the widen (0.60) and the
// shed (0.90) watermarks a frame is admitted and widens the tier once
// the dwell allows; above 0.90 it is shed, and the tier does not move
// on it.
TEST(AdmissionController, WidensBeforeShedding) {
  PrecisionOptions precision;
  precision.enabled = true;
  AdmissionController controller(AdmissionOptions{}, precision, {});
  for (uint64_t i = 1; i <= kTierDwell; ++i) {
    const AdmitOutcome outcome = controller.Admit(75, 100);
    ASSERT_EQ(outcome.decision, AdmitDecision::kAdmit) << "admission " << i;
    ASSERT_EQ(outcome.tier, i < kTierDwell ? 0u : 1u) << "admission " << i;
  }
  // Hold the tier until the dwell allows the next move.
  for (uint64_t i = 1; i < kTierDwell; ++i) {
    ASSERT_EQ(controller.Admit(75, 100).tier, 1u);
  }
  const AdmitOutcome shed = controller.Admit(95, 100);
  EXPECT_EQ(shed.decision, AdmitDecision::kShedQueue);
  EXPECT_EQ(shed.tier, 1u);
  EXPECT_EQ(controller.tier(), 1u);
  EXPECT_EQ(controller.widen_events(), 1u);
}

// ---------------------------------------------------------------------
// End-to-end sessions over the in-process transport.

TEST(Session, DrainDeliversSameOutputsAsDirectRuntime) {
  const std::vector<Tuple> trace = PiecewiseTrace(300);

  // Direct path.
  ServerOptions options = ObjectsServerOptions(BackpressurePolicy::kBlock);
  Result<HistoricalRuntime> direct =
      HistoricalRuntime::Make(options.spec, options.runtime);
  ASSERT_TRUE(direct.ok());
  for (const Tuple& t : trace) {
    ASSERT_TRUE(direct->ProcessTuple("objects", t).ok());
  }
  ASSERT_TRUE(direct->Finish().ok());
  const std::vector<Segment> expected = direct->TakeOutputSegments();
  ASSERT_FALSE(expected.empty());

  // Served path.
  Result<std::unique_ptr<StreamServer>> server =
      StreamServer::Make(ObjectsServerOptions(BackpressurePolicy::kBlock));
  ASSERT_TRUE(server.ok());
  Result<std::unique_ptr<Transport>> conn = (*server)->ConnectInProcess();
  ASSERT_TRUE(conn.ok());
  ServeClient client(std::move(*conn));
  ASSERT_TRUE(client.Hello().ok());
  ASSERT_TRUE(client.OpenStream(1, "objects").ok());
  for (const Tuple& t : trace) {
    ASSERT_TRUE(client.SendTuple(1, t).ok());
  }
  Result<ServeClient::DrainResult> drained = client.Drain();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->shed, 0u);
  EXPECT_EQ(drained->dropped, 0u);
  ExpectSameSegments(expected, drained->output_segments);
  // No Bye after Drain: the server closes the transport right after
  // kDrained, so a late goodbye write races the peer's close.
  (*server)->Drain();

  // Lossless accounting: everything sent was accepted and dispatched.
  obs::MetricsSnapshot snapshot = (*server)->metrics()->Snapshot();
  EXPECT_EQ(snapshot.counters["serve/queue/accepted"], trace.size());
  EXPECT_EQ(snapshot.counters["serve/queue/shed"], 0u);
  EXPECT_EQ(snapshot.counters["serve/batch/tuples"], trace.size());
  EXPECT_EQ(snapshot.counters["serve/session/opened"], 1u);
  EXPECT_EQ(snapshot.counters["serve/session/closed"], 1u);
}

// The worker must never end a drain with accepted items still queued.
// Each session sends its data and its kDrain back to back, so the final
// items are often admitted while the worker is idle-flushing released
// outputs; every session's output must still equal the replay's.
TEST(Session, DrainRightAfterDataDeliversAllAccepted) {
  std::vector<Tuple> trace;
  // Eight keys whose x zig-zags every four samples, so segments close
  // (and the shards release outputs) all through the session.
  for (int i = 0; i < 256; ++i) {
    const int step = i / 8;
    const double t = step * 0.05;
    const double x =
        (step / 4) % 2 == 0 ? 4.0 * (step % 4) : 12.0 - 4.0 * (step % 4);
    trace.push_back(ObjectTuple(t, i % 8, x + (i % 8), 0.0));
  }
  ServerOptions options = ObjectsServerOptions(BackpressurePolicy::kBlock);
  options.num_shards = 4;
  Result<HistoricalRuntime> direct =
      HistoricalRuntime::Make(options.spec, options.runtime);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(direct->ProcessTuples("objects", trace.data(), trace.size())
                  .ok());
  ASSERT_TRUE(direct->Finish().ok());
  const std::vector<Segment> expected = direct->TakeOutputSegments();
  ASSERT_FALSE(expected.empty());

  Result<std::unique_ptr<StreamServer>> server =
      StreamServer::Make(std::move(options));
  ASSERT_TRUE(server.ok());
  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 75;
  std::atomic<int> mismatched{0};
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSessionsPerThread; ++i) {
        Result<std::unique_ptr<Transport>> conn =
            (*server)->ConnectInProcess();
        ASSERT_TRUE(conn.ok());
        ServeClient client(std::move(*conn));
        ASSERT_TRUE(client.Hello().ok());
        ASSERT_TRUE(client.OpenStream(1, "objects").ok());
        for (size_t j = 0; j < trace.size(); j += 8) {
          ASSERT_TRUE(client
                          .SendBatch(1, std::vector<Tuple>(
                                            trace.begin() + j,
                                            trace.begin() + j + 8))
                          .ok());
        }
        Result<ServeClient::DrainResult> drained = client.Drain();
        ASSERT_TRUE(drained.ok());
        const std::vector<Segment>& got = drained->output_segments;
        bool same = got.size() == expected.size();
        for (size_t k = 0; same && k < got.size(); ++k) {
          same = got[k].key == expected[k].key &&
                 got[k].range.lo == expected[k].range.lo &&
                 got[k].range.hi == expected[k].range.hi &&
                 got[k].attributes == expected[k].attributes;
        }
        if (!same) mismatched.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  (*server)->Drain();
  EXPECT_EQ(mismatched.load(), 0)
      << "sessions whose drain lost accepted items";
  obs::MetricsSnapshot snapshot = (*server)->metrics()->Snapshot();
  EXPECT_EQ(snapshot.counters["serve/batch/tuples"],
            trace.size() * kThreads * kSessionsPerThread);
}

TEST(Session, SegmentPushPathMatchesDirectReplay) {
  ServerOptions options = ObjectsServerOptions(BackpressurePolicy::kBlock);
  options.spec = FilterQuerySpec(5.0);
  Segment seg(1, Interval::ClosedOpen(0.0, 10.0));
  seg.set_attribute("x", Polynomial({0.0, 1.0}));
  seg.set_attribute("y", Polynomial());

  Result<std::unique_ptr<StreamServer>> server =
      StreamServer::Make(std::move(options));
  ASSERT_TRUE(server.ok());
  Result<std::unique_ptr<Transport>> conn = (*server)->ConnectInProcess();
  ASSERT_TRUE(conn.ok());
  ServeClient client(std::move(*conn));
  ASSERT_TRUE(client.Hello().ok());
  ASSERT_TRUE(client.OpenStream(1, "objects").ok());
  ASSERT_TRUE(client.SendSegment(1, seg).ok());
  Result<ServeClient::DrainResult> drained = client.Drain();
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(drained->output_segments.size(), 1u);
  // x < 5 truncates the [0, 10) validity to [0, 5).
  EXPECT_NEAR(drained->output_segments[0].range.hi, 5.0, 1e-9);
  (*server)->Drain();
}

// Segment frames weigh one apiece: the queue counters count segments
// like tuples, and serve/batch/segments counts their dispatch, so the
// conservation identities hold for segment streams too.
TEST(Session, SegmentFramesConserveAccounting) {
  ServerOptions options = ObjectsServerOptions(BackpressurePolicy::kBlock);
  Result<std::unique_ptr<StreamServer>> server =
      StreamServer::Make(std::move(options));
  ASSERT_TRUE(server.ok());
  Result<std::unique_ptr<Transport>> conn = (*server)->ConnectInProcess();
  ASSERT_TRUE(conn.ok());
  ServeClient client(std::move(*conn));
  ASSERT_TRUE(client.Hello().ok());
  ASSERT_TRUE(client.OpenStream(1, "objects").ok());
  constexpr int kSegments = 10;
  for (int i = 0; i < kSegments; ++i) {
    Segment seg(1 + i % 3, Interval::ClosedOpen(i, i + 1.0));
    seg.set_attribute("x", Polynomial({50.0 * i, 1.0}));
    seg.set_attribute("y", Polynomial());
    ASSERT_TRUE(client.SendSegment(1, seg).ok());
  }
  Result<ServeClient::DrainResult> drained = client.Drain();
  ASSERT_TRUE(drained.ok());
  (*server)->Drain();
  // x < 100 holds on the first two segments only.
  EXPECT_EQ(drained->output_segments.size(), 2u);
  obs::MetricsSnapshot snapshot = (*server)->metrics()->Snapshot();
  EXPECT_EQ(snapshot.counters["serve/queue/accepted"], kSegments);
  EXPECT_EQ(snapshot.counters["serve/queue/shed"], 0u);
  EXPECT_EQ(snapshot.counters["serve/batch/segments"], kSegments);
  EXPECT_EQ(snapshot.counters["serve/batch/tuples"], 0u);
  EXPECT_EQ(snapshot.counters["serve/batch/dispatched"], 0u);
}

// Both conservation identities, in tuples, under every policy. The
// 400-tuple frame is heavier than the whole queue, so it enters the
// empty queue whole; the run of 4-tuple frames against a 4-tuple queue
// puts shed and drop-oldest under pressure.
TEST(Session, PolicyAccountingConservesTuples) {
  const std::vector<Tuple> trace = PiecewiseTrace(400);
  for (const BackpressurePolicy policy :
       {BackpressurePolicy::kBlock, BackpressurePolicy::kDropOldest,
        BackpressurePolicy::kShed}) {
    for (const size_t frame_tuples : {size_t{400}, size_t{4}}) {
      SCOPED_TRACE(std::string(BackpressurePolicyToString(policy)) +
                   ", frames of " + std::to_string(frame_tuples));
      ServerOptions options = ObjectsServerOptions(policy);
      options.session.queue_capacity = 4;  // force pressure
      Result<std::unique_ptr<StreamServer>> server =
          StreamServer::Make(std::move(options));
      ASSERT_TRUE(server.ok());
      Result<std::unique_ptr<Transport>> conn =
          (*server)->ConnectInProcess();
      ASSERT_TRUE(conn.ok());
      ServeClient client(std::move(*conn));
      ASSERT_TRUE(client.Hello().ok());
      ASSERT_TRUE(client.OpenStream(1, "objects").ok());
      for (size_t i = 0; i < trace.size(); i += frame_tuples) {
        ASSERT_TRUE(client
                        .SendBatch(1, std::vector<Tuple>(
                                          trace.begin() + i,
                                          trace.begin() + i + frame_tuples))
                        .ok());
      }
      Result<ServeClient::DrainResult> drained = client.Drain();
      ASSERT_TRUE(drained.ok());
      (*server)->Drain();

      obs::MetricsSnapshot snapshot = (*server)->metrics()->Snapshot();
      const uint64_t accepted = snapshot.counters["serve/queue/accepted"];
      const uint64_t shed = snapshot.counters["serve/queue/shed"];
      const uint64_t dropped = snapshot.counters["serve/queue/dropped"];
      // Conservation: every sent tuple was either accepted or shed, and
      // every accepted-minus-evicted tuple was dispatched to the runtime.
      EXPECT_EQ(accepted + shed, trace.size());
      EXPECT_EQ(snapshot.counters["serve/batch/tuples"], accepted - dropped);
      // The client saw the same story via flow frames.
      EXPECT_EQ(drained->shed, shed);
      EXPECT_EQ(drained->dropped, dropped);
      if (policy != BackpressurePolicy::kDropOldest) {
        EXPECT_EQ(dropped, 0u);
      }
      if (policy == BackpressurePolicy::kBlock || frame_tuples == 400) {
        EXPECT_EQ(accepted, trace.size());
      }
    }
  }
}

// The reader pushes once per data frame, so a blocked frame costs one
// kPaused/kResumed pair however many tuples it carries. Every 64-tuple
// frame outweighs the 1-tuple queue and so waits for the worker to pop
// the frame before it.
TEST(Session, BlockedFramePausesOnce) {
  constexpr size_t kFrames = 100;
  constexpr size_t kFrameTuples = 64;
  // A first frame far heavier than the rest (1.8 MB, under the 4 MiB
  // frame bound) keeps the shard busy for long enough that the small
  // frames behind it fill the shard's exchange queue, stall the worker
  // and block the reader: the first frame's processing outlasts the
  // decoding of a few 64-tuple frames by orders of magnitude.
  constexpr size_t kFirstFrameTuples = size_t{1} << 15;
  const std::vector<Tuple> trace =
      PiecewiseTrace(kFirstFrameTuples + kFrames * kFrameTuples);
  uint64_t paused = 0;
  for (int attempt = 0; attempt < 10 && paused == 0; ++attempt) {
    ServerOptions options = ObjectsServerOptions(BackpressurePolicy::kBlock);
    options.session.queue_capacity = 1;
    Result<std::unique_ptr<StreamServer>> server =
        StreamServer::Make(std::move(options));
    ASSERT_TRUE(server.ok());
    Result<std::unique_ptr<Transport>> conn = (*server)->ConnectInProcess();
    ASSERT_TRUE(conn.ok());
    ServeClient client(std::move(*conn));
    ASSERT_TRUE(client.Hello().ok());
    ASSERT_TRUE(client.OpenStream(1, "objects").ok());
    ASSERT_TRUE(client
                    .SendBatch(1, std::vector<Tuple>(
                                      trace.begin(),
                                      trace.begin() + kFirstFrameTuples))
                    .ok());
    for (size_t i = kFirstFrameTuples; i < trace.size(); i += kFrameTuples) {
      ASSERT_TRUE(client
                      .SendBatch(1, std::vector<Tuple>(
                                        trace.begin() + i,
                                        trace.begin() + i + kFrameTuples))
                      .ok());
    }
    Result<ServeClient::DrainResult> drained = client.Drain();
    ASSERT_TRUE(drained.ok());
    (*server)->Drain();
    uint64_t resumed = 0;
    for (const Frame& flow : drained->flow_frames) {
      if (flow.flow_event == FlowEvent::kPaused) {
        EXPECT_EQ(paused, resumed) << "kPaused before the last kResumed";
        ++paused;
      } else if (flow.flow_event == FlowEvent::kResumed) {
        ++resumed;
        EXPECT_EQ(paused, resumed) << "kResumed without a kPaused";
      }
    }
    EXPECT_EQ(paused, resumed);
    EXPECT_LE(paused, kFrames);
    EXPECT_EQ(drained->shed, 0u);
    EXPECT_EQ((*server)->metrics()->Snapshot().counters["serve/batch/tuples"],
              trace.size());
  }
  EXPECT_GT(paused, 0u) << "no frame blocked in 10 sessions";
}

// Frame boundaries and cross-stream interleaving never change answers:
// a two-stream key-matched join fed as frames of 1, 7, 64 and 400 tuples,
// alternating streams frame by frame, delivers exactly what a direct
// HistoricalRuntime replay of the same arrival order produces. The
// worker coalesces adjacent frames of one stream only, so this also
// pins the arrival order across streams.
TEST(Session, FrameSplitDoesNotChangeAnswers) {
  ServerOptions options = ObjectsServerOptions(BackpressurePolicy::kBlock);
  options.num_shards = 2;
  options.spec = QuerySpec();
  for (const char* name : {"left", "right"}) {
    ASSERT_TRUE(options.spec
                    .AddStream(MovingObjectGenerator::MakeStreamSpec(name,
                                                                     5.0))
                    .ok());
  }
  JoinSpec join;
  join.predicate = Predicate::Comparison(ComparisonTerm::Simple(
      AttrRef::Left("x"), CmpOp::kLt,
      Operand::Attribute(AttrRef::Right("x"))));
  join.window_seconds = 100.0;
  join.match_keys = true;
  options.spec.AddJoin("j", QuerySpec::Input::Stream("left"),
                       QuerySpec::Input::Stream("right"), join);

  // Four keys per stream. Left x zig-zags with period 3 s, right x
  // slowly rises, so the join's answer flips many times per key.
  std::vector<Tuple> left;
  std::vector<Tuple> right;
  for (int step = 0; step < 200; ++step) {
    const double t = step * 0.05;
    const double phase = std::fmod(t, 3.0);
    const double zig = phase < 1.5 ? 4.0 * phase : 12.0 - 4.0 * phase;
    for (int key = 1; key <= 4; ++key) {
      left.push_back(ObjectTuple(t, key, zig + key, 0.0));
      right.push_back(ObjectTuple(t, key, 2.0 + 0.5 * t + key, 0.0));
    }
  }

  for (const size_t frame_tuples :
       {size_t{1}, size_t{7}, size_t{64}, size_t{400}}) {
    SCOPED_TRACE("frames of " + std::to_string(frame_tuples));
    // Arrival order: frames alternate left, right, left, ...
    struct Sent {
      uint32_t stream_id;
      std::vector<Tuple> tuples;
    };
    std::vector<Sent> frames;
    for (size_t i = 0; i < left.size(); i += frame_tuples) {
      const size_t end = std::min(left.size(), i + frame_tuples);
      frames.push_back({1, std::vector<Tuple>(left.begin() + i,
                                              left.begin() + end)});
      frames.push_back({2, std::vector<Tuple>(right.begin() + i,
                                              right.begin() + end)});
    }

    Result<HistoricalRuntime> direct =
        HistoricalRuntime::Make(options.spec, options.runtime);
    ASSERT_TRUE(direct.ok());
    for (const Sent& frame : frames) {
      for (const Tuple& t : frame.tuples) {
        ASSERT_TRUE(
            direct->ProcessTuple(frame.stream_id == 1 ? "left" : "right", t)
                .ok());
      }
    }
    ASSERT_TRUE(direct->Finish().ok());
    const std::vector<Segment> expected = direct->TakeOutputSegments();
    ASSERT_FALSE(expected.empty());

    Result<std::unique_ptr<StreamServer>> server =
        StreamServer::Make(options);
    ASSERT_TRUE(server.ok());
    Result<std::unique_ptr<Transport>> conn = (*server)->ConnectInProcess();
    ASSERT_TRUE(conn.ok());
    ServeClient client(std::move(*conn));
    ASSERT_TRUE(client.Hello().ok());
    ASSERT_TRUE(client.OpenStream(1, "left").ok());
    ASSERT_TRUE(client.OpenStream(2, "right").ok());
    for (Sent& frame : frames) {
      ASSERT_TRUE(
          client.SendBatch(frame.stream_id, std::move(frame.tuples)).ok());
    }
    Result<ServeClient::DrainResult> drained = client.Drain();
    ASSERT_TRUE(drained.ok());
    EXPECT_EQ(drained->shed, 0u);
    ExpectSameSegments(expected, drained->output_segments);
    (*server)->Drain();
  }
}

TEST(Session, ProtocolViolationGetsErrorFrame) {
  Result<std::unique_ptr<StreamServer>> server =
      StreamServer::Make(ObjectsServerOptions(BackpressurePolicy::kBlock));
  ASSERT_TRUE(server.ok());
  Result<std::unique_ptr<Transport>> conn = (*server)->ConnectInProcess();
  ASSERT_TRUE(conn.ok());
  ServeClient client(std::move(*conn));
  // No hello: the first data frame is a protocol violation.
  ASSERT_TRUE(client.SendTuple(1, ObjectTuple(0, 1, 0, 0)).ok());
  Result<std::optional<Frame>> reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->has_value());
  EXPECT_EQ((*reply)->type, FrameType::kError);
  (*server)->Shutdown();
}

TEST(Session, UnknownStreamNameRejected) {
  Result<std::unique_ptr<StreamServer>> server =
      StreamServer::Make(ObjectsServerOptions(BackpressurePolicy::kBlock));
  ASSERT_TRUE(server.ok());
  Result<std::unique_ptr<Transport>> conn = (*server)->ConnectInProcess();
  ASSERT_TRUE(conn.ok());
  ServeClient client(std::move(*conn));
  ASSERT_TRUE(client.Hello().ok());
  ASSERT_TRUE(client.OpenStream(1, "nonexistent").ok());
  Result<std::optional<Frame>> reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->has_value());
  EXPECT_EQ((*reply)->type, FrameType::kError);
  (*server)->Shutdown();
}

TEST(Session, TeardownUnderLoadDoesNotHang) {
  Result<std::unique_ptr<StreamServer>> server =
      StreamServer::Make(ObjectsServerOptions(BackpressurePolicy::kBlock));
  ASSERT_TRUE(server.ok());
  // Several concurrent sessions, each sending as fast as it can while
  // the server is shut down mid-stream.
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    Result<std::unique_ptr<Transport>> conn = (*server)->ConnectInProcess();
    ASSERT_TRUE(conn.ok());
    clients.emplace_back([transport = std::move(*conn)]() mutable {
      ServeClient client(std::move(transport));
      if (!client.Hello().ok()) return;
      if (!client.OpenStream(1, "objects").ok()) return;
      for (int i = 0; i < 1'000'000; ++i) {
        if (!client
                 .SendTuple(1, ObjectTuple(i * 0.05, 1, i * 0.1, 0.0))
                 .ok()) {
          return;  // server went away: expected
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  (*server)->Shutdown();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ((*server)->active_sessions(), 0u);
}

TEST(Session, ServerDrainFinishesInFlightSessions) {
  Result<std::unique_ptr<StreamServer>> server =
      StreamServer::Make(ObjectsServerOptions(BackpressurePolicy::kBlock));
  ASSERT_TRUE(server.ok());
  Result<std::unique_ptr<Transport>> conn = (*server)->ConnectInProcess();
  ASSERT_TRUE(conn.ok());
  ServeClient client(std::move(*conn));
  ASSERT_TRUE(client.Hello().ok());
  ASSERT_TRUE(client.OpenStream(1, "objects").ok());
  ASSERT_TRUE(client.SendBatch(1, PiecewiseTrace(100)).ok());
  // Drain only guarantees delivery of *admitted* work, and the batch
  // sits in the transport buffer until the reader thread decodes it —
  // wait for admission before draining, or the drain may legitimately
  // produce nothing.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((*server)->metrics()->Snapshot().counters["serve/queue/accepted"] <
         100) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Server-side graceful drain: session processes what was admitted
  // and closes; the client sees output frames then EOF.
  std::thread drainer([&] { (*server)->Drain(); });
  size_t outputs = 0;
  for (;;) {
    Result<std::optional<Frame>> frame = client.ReadFrame();
    if (!frame.ok() || !frame->has_value()) break;
    if ((*frame)->type == FrameType::kOutputSegment) ++outputs;
  }
  drainer.join();
  EXPECT_GT(outputs, 0u);
  EXPECT_EQ((*server)->active_sessions(), 0u);
}

// ---------------------------------------------------------------------
// TCP transport.

// StreamServer::Snapshot reads the live shard registries, so an export
// taken after Drain agrees with the serve/* counts: the runtime saw
// exactly the tuples the sessions dispatched, and each rollup is the sum
// of its shard/<i>/ series.
TEST(StreamServer, SnapshotAfterDrainIsConsistent) {
  std::vector<Tuple> trace;
  for (int i = 0; i < 400; ++i) {
    const double t = (i / 8) * 0.05;
    trace.push_back(ObjectTuple(t, i % 8, 2.0 * t + (i % 8), 0.0));
  }
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(std::to_string(shards) + " shard(s)");
    ServerOptions options = ObjectsServerOptions(BackpressurePolicy::kBlock);
    options.num_shards = shards;
    Result<std::unique_ptr<StreamServer>> server =
        StreamServer::Make(std::move(options));
    ASSERT_TRUE(server.ok());
    std::vector<std::thread> sessions;
    for (int c = 0; c < 2; ++c) {
      Result<std::unique_ptr<Transport>> conn = (*server)->ConnectInProcess();
      ASSERT_TRUE(conn.ok());
      sessions.emplace_back([&trace, conn = std::move(*conn)]() mutable {
        ServeClient client(std::move(conn));
        ASSERT_TRUE(client.Hello().ok());
        ASSERT_TRUE(client.OpenStream(1, "objects").ok());
        for (size_t i = 0; i < trace.size(); i += 40) {
          ASSERT_TRUE(client
                          .SendBatch(1, std::vector<Tuple>(
                                            trace.begin() + i,
                                            trace.begin() + i + 40))
                          .ok());
        }
        ASSERT_TRUE(client.Drain().ok());
      });
    }
    for (std::thread& t : sessions) t.join();
    (*server)->Drain();

    const obs::MetricsSnapshot snap = (*server)->Snapshot();
    if (!obs::kMetricsEnabled) continue;
    EXPECT_EQ(snap.counters.at("serve/queue/accepted"), 2 * trace.size());
    EXPECT_EQ(snap.counters.at("runtime/tuples_in"),
              snap.counters.at("serve/batch/tuples"));
    EXPECT_EQ(snap.counters.at("serve/batch/tuples"),
              snap.counters.at("serve/queue/accepted"));
    // Sum each counter's shard/<i>/ series, keyed by the plain name.
    std::map<std::string, uint64_t> shard_sums;
    for (size_t i = 0; i < (*server)->num_shards(); ++i) {
      const std::string prefix = "shard/" + std::to_string(i) + "/";
      for (const auto& [name, value] : snap.counters) {
        if (name.rfind(prefix, 0) == 0) {
          shard_sums[name.substr(prefix.size())] += value;
        }
      }
    }
    EXPECT_TRUE(shard_sums.count("runtime/tuples_in") > 0);
    for (const auto& [name, sum] : shard_sums) {
      ASSERT_EQ(snap.counters.count(name), 1u) << name;
      EXPECT_EQ(snap.counters.at(name), sum) << name;
    }
  }
}

TEST(TcpTransport, EndToEndSessionOverLoopback) {
  Result<std::unique_ptr<StreamServer>> server =
      StreamServer::Make(ObjectsServerOptions(BackpressurePolicy::kBlock));
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->ListenTcp(0).ok());
  const uint16_t port = (*server)->tcp_port();
  ASSERT_NE(port, 0);

  Result<std::unique_ptr<Transport>> conn = TcpConnect("127.0.0.1", port);
  ASSERT_TRUE(conn.ok());
  ServeClient client(std::move(*conn));
  ASSERT_TRUE(client.Hello().ok());
  ASSERT_TRUE(client.OpenStream(1, "objects").ok());
  ASSERT_TRUE(client.SendBatch(1, PiecewiseTrace(200)).ok());
  Result<ServeClient::DrainResult> drained = client.Drain();
  ASSERT_TRUE(drained.ok());
  EXPECT_GT(drained->output_segments.size(), 0u);
  EXPECT_EQ(drained->shed, 0u);
  ASSERT_TRUE(client.Bye().ok());
  (*server)->Drain();
  EXPECT_EQ((*server)->sessions_opened(), 1u);
}

// ---------------------------------------------------------------------
// Paced replay traffic generator.

TEST(PacedReplay, UniformPacingAtTargetRate) {
  PacedReplay replay(PiecewiseTrace(10), 1000.0);  // 1k tuples/s
  Tuple t;
  uint64_t offset = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(replay.Next(&t, &offset));
    EXPECT_EQ(offset, static_cast<uint64_t>(i) * 1'000'000u);
  }
  EXPECT_FALSE(replay.Next(&t, &offset));
}

TEST(PacedReplay, EventTimePacingFollowsTimestamps) {
  std::vector<Tuple> trace = {ObjectTuple(10.0, 1, 0, 0),
                              ObjectTuple(10.5, 1, 1, 0),
                              ObjectTuple(12.0, 1, 2, 0)};
  PacedReplay replay(trace, 0.0);
  Tuple t;
  uint64_t offset = 0;
  ASSERT_TRUE(replay.Next(&t, &offset));
  EXPECT_EQ(offset, 0u);
  ASSERT_TRUE(replay.Next(&t, &offset));
  EXPECT_EQ(offset, 500'000'000u);
  ASSERT_TRUE(replay.Next(&t, &offset));
  EXPECT_EQ(offset, 2'000'000'000u);
}

// ---------------------------------------------------------------------
// Durable serving mode (docs/STORAGE.md): admitted input hits the
// shared segment log before dispatch, delivered outputs advance the
// checkpoint watermark, and Drain seals a finished checkpoint that
// recovery verifies byte-for-byte.

class DurableServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string templ =
        (std::filesystem::temp_directory_path() / "pulse_serve_store_XXXXXX")
            .string();
    ASSERT_NE(mkdtemp(templ.data()), nullptr);
    dir_ = templ;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(DurableServeTest, SessionLogsAdmissionsAndDrainSealsCheckpoint) {
  const std::vector<Tuple> trace = PiecewiseTrace(300);
  ServerOptions options = ObjectsServerOptions(BackpressurePolicy::kBlock);
  std::vector<Segment> delivered;
  {
    Result<store::SegmentStore> st = store::SegmentStore::Open({.dir = dir_});
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    options.store = &*st;
    Result<std::unique_ptr<StreamServer>> server =
        StreamServer::Make(options);
    ASSERT_TRUE(server.ok());
    Result<std::unique_ptr<Transport>> conn = (*server)->ConnectInProcess();
    ASSERT_TRUE(conn.ok());
    ServeClient client(std::move(*conn));
    ASSERT_TRUE(client.Hello().ok());
    ASSERT_TRUE(client.OpenStream(1, "objects").ok());
    for (const Tuple& t : trace) {
      ASSERT_TRUE(client.SendTuple(1, t).ok());
    }
    Result<ServeClient::DrainResult> drained = client.Drain();
    ASSERT_TRUE(drained.ok());
    EXPECT_EQ(drained->shed, 0u);
    delivered = std::move(drained->output_segments);
    ASSERT_FALSE(delivered.empty());
    (*server)->Drain();
    // Every admitted tuple was logged; every delivered output noted.
    EXPECT_EQ(st->log_records(), trace.size());
    EXPECT_EQ(st->delivered_outputs(), delivered.size());
  }

  // Recovery replays the log into a fresh runtime and must verify the
  // delivered prefix against the finished checkpoint — and because the
  // checkpoint covered everything, nothing is pending.
  Result<store::RecoveredHistorical> recovered = store::RecoverHistorical(
      options.spec, options.runtime, {.dir = dir_});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->report.clean());
  EXPECT_TRUE(recovered->report.checkpoint.finished);
  EXPECT_EQ(recovered->report.log_records, trace.size());
  EXPECT_TRUE(recovered->state_verified) << recovered->verify_detail;
  EXPECT_TRUE(recovered->pending_outputs.empty());
}

TEST_F(DurableServeTest, KilledServerRedeliversUndeliveredOutputs) {
  const std::vector<Tuple> trace = PiecewiseTrace(300);
  ServerOptions options = ObjectsServerOptions(BackpressurePolicy::kBlock);

  // The uninterrupted direct run is the ground truth.
  Result<HistoricalRuntime> direct =
      HistoricalRuntime::Make(options.spec, options.runtime);
  ASSERT_TRUE(direct.ok());
  for (const Tuple& t : trace) {
    ASSERT_TRUE(direct->ProcessTuple("objects", t).ok());
  }
  ASSERT_TRUE(direct->Finish().ok());
  const std::vector<Segment> expected = direct->TakeOutputSegments();

  // Serve the feed durably, then Shutdown() instead of Drain(): the
  // hard stop never seals a checkpoint (the mid-flight crash shape).
  {
    Result<store::SegmentStore> st = store::SegmentStore::Open({.dir = dir_});
    ASSERT_TRUE(st.ok());
    options.store = &*st;
    Result<std::unique_ptr<StreamServer>> server =
        StreamServer::Make(options);
    ASSERT_TRUE(server.ok());
    Result<std::unique_ptr<Transport>> conn = (*server)->ConnectInProcess();
    ASSERT_TRUE(conn.ok());
    ServeClient client(std::move(*conn));
    ASSERT_TRUE(client.Hello().ok());
    ASSERT_TRUE(client.OpenStream(1, "objects").ok());
    for (const Tuple& t : trace) {
      ASSERT_TRUE(client.SendTuple(1, t).ok());
    }
    // Client drain forces all input through admission (and thus into
    // the log) before the "crash".
    ASSERT_TRUE(client.Drain().ok());
    (*server)->Shutdown();
    EXPECT_EQ(st->log_records(), trace.size());
  }

  // No checkpoint: recovery redelivers the full output set, which must
  // equal the uninterrupted run's.
  Result<store::RecoveredHistorical> recovered = store::RecoverHistorical(
      options.spec, options.runtime, {.dir = dir_});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->report.checkpoint_found);
  EXPECT_TRUE(recovered->state_verified) << recovered->verify_detail;
  ASSERT_TRUE(recovered->runtime.Finish().ok());
  std::vector<Segment> outputs = std::move(recovered->pending_outputs);
  for (Segment& s : recovered->runtime.TakeOutputSegments()) {
    outputs.push_back(std::move(s));
  }
  ExpectSameSegments(expected, outputs);
}

}  // namespace
}  // namespace serve
}  // namespace pulse
