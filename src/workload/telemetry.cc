#include "workload/telemetry.h"

#include <algorithm>

#include "util/logging.h"

namespace pulse {

namespace {

// Metric indices into the per-host track array.
constexpr size_t kSyn = 0;
constexpr size_t kAck = 1;
constexpr size_t kIn = 2;
constexpr size_t kPorts = 3;
constexpr size_t kFanout = 4;

size_t MetricOf(AttackEvent::Kind kind) {
  switch (kind) {
    case AttackEvent::Kind::kSynFlood:
      return kSyn;
    case AttackEvent::Kind::kPortScan:
      return kPorts;
    case AttackEvent::Kind::kDdosVictim:
      return kIn;
    case AttackEvent::Kind::kSuperSpreader:
      return kFanout;
  }
  return kSyn;
}

}  // namespace

TelemetryGenerator::TelemetryGenerator(TelemetryOptions options)
    : options_(options), rng_(options.seed) {
  PULSE_CHECK(options_.num_hosts > 0);
  PULSE_CHECK(options_.tuple_rate > 0.0);
  PULSE_CHECK(options_.attack_duration > 2.0 * options_.ramp_seconds);
  now_ = options_.start_time;
  baseline_.resize(options_.num_hosts);
  for (auto& levels : baseline_) {
    for (double& level : levels) {
      level = rng_.Uniform(
          std::max(0.0, options_.baseline - options_.baseline_jitter),
          options_.baseline + options_.baseline_jitter);
    }
  }
  // Schedule attacks on distinct hosts so ground truth is unambiguous
  // (one attacked metric per host). Onsets land early enough that the
  // attack completes inside the trace.
  const size_t total = options_.syn_floods + options_.port_scans +
                       options_.ddos_victims + options_.super_spreaders;
  PULSE_CHECK(total <= options_.num_hosts);
  std::vector<size_t> hosts(options_.num_hosts);
  for (size_t i = 0; i < hosts.size(); ++i) hosts[i] = i;
  for (size_t i = 0; i < total; ++i) {
    const size_t j = static_cast<size_t>(
        rng_.UniformInt(static_cast<int64_t>(i),
                        static_cast<int64_t>(hosts.size()) - 1));
    std::swap(hosts[i], hosts[j]);
  }
  const double latest_onset = std::max(
      0.0, options_.duration - options_.attack_duration - 1.0);
  size_t next = 0;
  auto schedule = [&](AttackEvent::Kind kind, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      AttackEvent ev;
      ev.kind = kind;
      ev.host = static_cast<int64_t>(hosts[next++]);
      ev.onset = options_.start_time +
                 rng_.Uniform(0.1 * options_.duration, latest_onset);
      ev.end = ev.onset + options_.attack_duration;
      attacks_.push_back(ev);
    }
  };
  schedule(AttackEvent::Kind::kSynFlood, options_.syn_floods);
  schedule(AttackEvent::Kind::kPortScan, options_.port_scans);
  schedule(AttackEvent::Kind::kDdosVictim, options_.ddos_victims);
  schedule(AttackEvent::Kind::kSuperSpreader, options_.super_spreaders);
}

std::shared_ptr<const Schema> TelemetryGenerator::TupleSchema() {
  return Schema::Make({{"id", ValueType::kInt64},
                       {"syn_rate", ValueType::kDouble},
                       {"syn_rate_d", ValueType::kDouble},
                       {"ack_rate", ValueType::kDouble},
                       {"ack_rate_d", ValueType::kDouble},
                       {"in_rate", ValueType::kDouble},
                       {"in_rate_d", ValueType::kDouble},
                       {"port_spread", ValueType::kDouble},
                       {"port_spread_d", ValueType::kDouble},
                       {"fanout", ValueType::kDouble},
                       {"fanout_d", ValueType::kDouble}});
}

StreamSpec TelemetryGenerator::MakeStreamSpec(std::string name,
                                              double segment_horizon) {
  StreamSpec spec;
  spec.name = std::move(name);
  spec.schema = TupleSchema();
  spec.key_field = "id";
  spec.models = {{"syn_rate", {"syn_rate", "syn_rate_d"}},
                 {"ack_rate", {"ack_rate", "ack_rate_d"}},
                 {"in_rate", {"in_rate", "in_rate_d"}},
                 {"port_spread", {"port_spread", "port_spread_d"}},
                 {"fanout", {"fanout", "fanout_d"}}};
  spec.segment_horizon = segment_horizon;
  return spec;
}

TelemetryGenerator::MetricSample TelemetryGenerator::Eval(
    size_t host, size_t metric, double t) const {
  MetricSample s;
  s.value = baseline_[host][metric];
  for (const AttackEvent& ev : attacks_) {
    if (ev.host != static_cast<int64_t>(host)) continue;
    if (MetricOf(ev.kind) != metric) continue;
    const double r = options_.ramp_seconds;
    const double a = options_.peak;
    if (t < ev.onset || t >= ev.end) continue;
    if (t < ev.onset + r) {
      s.value += a * (t - ev.onset) / r;
      s.slope += a / r;
    } else if (t < ev.end - r) {
      s.value += a;
    } else {
      s.value += a * (ev.end - t) / r;
      s.slope -= a / r;
    }
  }
  return s;
}

Tuple TelemetryGenerator::NextTuple() {
  const size_t host = next_host_;
  next_host_ = (next_host_ + 1) % options_.num_hosts;

  Tuple t;
  t.timestamp = now_;
  t.values.reserve(1 + 2 * kNumMetrics);
  t.values.push_back(Value(static_cast<int64_t>(host)));
  for (size_t m = 0; m < kNumMetrics; ++m) {
    const MetricSample s = Eval(host, m, now_);
    t.values.emplace_back(s.value);
    t.values.emplace_back(s.slope);
  }
  now_ += 1.0 / options_.tuple_rate;
  return t;
}

std::vector<Tuple> TelemetryGenerator::Generate(size_t n) {
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(NextTuple());
  return out;
}

std::vector<Tuple> TelemetryGenerator::GenerateAll() {
  return Generate(
      static_cast<size_t>(options_.duration * options_.tuple_rate));
}

namespace {

// epoch -> filter(attr > threshold) -> distinct, the shared tail of the
// single-attribute detections.
Result<QuerySpec::NodeId> AddThresholdDetection(
    QuerySpec* spec, const TelemetryQueryParams& params,
    const std::string& prefix, QuerySpec::Input input,
    const std::string& attribute, double threshold) {
  EpochSpec epoch;
  epoch.epoch_seconds = params.epoch_seconds;
  const QuerySpec::NodeId e =
      spec->AddEpoch(prefix + ".epoch", std::move(input), epoch);

  FilterSpec filter;
  filter.predicate = Predicate::Comparison(ComparisonTerm::Simple(
      AttrRef::Left(attribute), CmpOp::kGt, Operand::Constant(threshold)));
  const QuerySpec::NodeId f = spec->AddFilter(
      prefix + ".filter", QuerySpec::Input::Node(e), filter);

  DistinctSpec distinct;
  distinct.epoch_seconds = params.epoch_seconds;
  return spec->AddDistinct(prefix + ".distinct", QuerySpec::Input::Node(f),
                           distinct);
}

}  // namespace

Result<QuerySpec::NodeId> AddSynFloodQuery(
    QuerySpec* spec, const TelemetryQueryParams& params) {
  PULSE_ASSIGN_OR_RETURN(StreamSpec stream, spec->stream(params.stream));
  (void)stream;
  MapSpec map;
  map.outputs = {ComputedAttr::Difference("syn_excess",
                                          AttrRef::Left("syn_rate"),
                                          AttrRef::Left("ack_rate"))};
  map.keep_inputs = true;
  const QuerySpec::NodeId m = spec->AddMap(
      "syn_flood.excess", QuerySpec::Input::Stream(params.stream), map);
  return AddThresholdDetection(spec, params, "syn_flood",
                               QuerySpec::Input::Node(m), "syn_excess",
                               params.syn_excess_threshold);
}

Result<QuerySpec::NodeId> AddPortScanQuery(
    QuerySpec* spec, const TelemetryQueryParams& params) {
  PULSE_ASSIGN_OR_RETURN(StreamSpec stream, spec->stream(params.stream));
  (void)stream;
  return AddThresholdDetection(
      spec, params, "port_scan", QuerySpec::Input::Stream(params.stream),
      "port_spread", params.port_spread_threshold);
}

Result<QuerySpec::NodeId> AddDdosVictimQuery(
    QuerySpec* spec, const TelemetryQueryParams& params) {
  PULSE_ASSIGN_OR_RETURN(StreamSpec stream, spec->stream(params.stream));
  (void)stream;
  return AddThresholdDetection(
      spec, params, "ddos_victim", QuerySpec::Input::Stream(params.stream),
      "in_rate", params.in_rate_threshold);
}

Result<QuerySpec::NodeId> AddSuperSpreaderQuery(
    QuerySpec* spec, const TelemetryQueryParams& params) {
  PULSE_ASSIGN_OR_RETURN(StreamSpec stream, spec->stream(params.stream));
  (void)stream;
  return AddThresholdDetection(
      spec, params, "super_spreader",
      QuerySpec::Input::Stream(params.stream), "fanout",
      params.fanout_threshold);
}

Result<QuerySpec::NodeId> AddHeavyHitterQuery(
    QuerySpec* spec, const TelemetryQueryParams& params) {
  PULSE_ASSIGN_OR_RETURN(StreamSpec stream, spec->stream(params.stream));
  (void)stream;
  AggregateSpec agg;
  agg.fn = AggFn::kAvg;
  agg.attribute = "in_rate";
  agg.output_attribute = "avg_in";
  agg.window_seconds = params.heavy_window;
  agg.slide_seconds = params.heavy_slide;
  agg.per_key = true;
  const QuerySpec::NodeId a = spec->AddAggregate(
      "heavy_hitter.avg", QuerySpec::Input::Stream(params.stream), agg);

  FilterSpec having;
  having.predicate = Predicate::Comparison(ComparisonTerm::Simple(
      AttrRef::Left("avg_in"), CmpOp::kGt,
      Operand::Constant(params.heavy_threshold)));
  return spec->AddFilter("heavy_hitter.having", QuerySpec::Input::Node(a),
                         having);
}

}  // namespace pulse
