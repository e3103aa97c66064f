#include "core/runtime.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "core/operators/aggregate.h"
#include "core/operators/distinct.h"
#include "core/operators/epoch.h"
#include "core/operators/filter.h"
#include "core/operators/join.h"
#include "core/operators/map.h"
#include "obs/span.h"
#include "util/logging.h"

namespace pulse {
namespace {

// Attribute names referenced by operators that consume `stream` directly:
// only these need validation — an unused modeled attribute cannot change
// any query result. Returns an empty set when nothing could be resolved
// (callers then validate everything, the safe default).
std::set<std::string> CollectStreamAttributes(const QuerySpec& spec,
                                              const std::string& stream) {
  std::set<std::string> used;
  for (const QuerySpec::Node& node : spec.nodes()) {
    bool consumes = false;
    for (const QuerySpec::Input& in : node.inputs) {
      if (in.is_stream && in.stream == stream) consumes = true;
    }
    if (!consumes) continue;
    switch (node.kind) {
      case QuerySpec::OpKind::kFilter: {
        std::vector<AttrRef> refs;
        node.filter->predicate.CollectAttributes(&refs);
        for (const AttrRef& r : refs) used.insert(r.name);
        break;
      }
      case QuerySpec::OpKind::kJoin: {
        std::vector<AttrRef> refs;
        node.join->predicate.CollectAttributes(&refs);
        for (const AttrRef& r : refs) used.insert(r.name);
        break;
      }
      case QuerySpec::OpKind::kAggregate:
        used.insert(node.aggregate->attribute);
        break;
      case QuerySpec::OpKind::kEpoch:
      case QuerySpec::OpKind::kDistinct:
        // Time-only operators: they read timestamps, not attributes.
        break;
      case QuerySpec::OpKind::kMap:
        for (const ComputedAttr& ca : node.map->outputs) {
          if (ca.kind == ComputedAttr::Kind::kDifference) {
            used.insert(ca.a.name);
            used.insert(ca.b.name);
          } else {
            used.insert(ca.x1.name);
            used.insert(ca.y1.name);
            used.insert(ca.x2.name);
            used.insert(ca.y2.name);
          }
        }
        break;
    }
  }
  return used;
}

}  // namespace
}  // namespace pulse

namespace pulse {

RuntimeCore::Counters RuntimeCore::Counters::Bind(
    obs::MetricsRegistry* registry, Mode mode) {
  Counters c;
  c.tuples_in = registry->GetCounter("runtime/tuples_in");
  c.segments_pushed = registry->GetCounter("runtime/segments_pushed");
  c.output_segments = registry->GetCounter("runtime/output_segments");
  if (mode == Mode::kPredictive) {
    c.tuples_validated = registry->GetCounter("runtime/tuples_validated");
    c.violations = registry->GetCounter("runtime/violations");
    c.output_tuples = registry->GetCounter("runtime/output_tuples");
    c.inversions = registry->GetCounter("runtime/inversions");
  }
  return c;
}

RuntimeStats RuntimeCore::Counters::Read() const {
  auto read = [](const obs::Counter* c) -> uint64_t {
    return c == nullptr ? 0 : c->value();
  };
  RuntimeStats s;
  s.tuples_in = read(tuples_in);
  s.tuples_validated = read(tuples_validated);
  s.violations = read(violations);
  s.segments_pushed = read(segments_pushed);
  s.output_segments = read(output_segments);
  s.output_tuples = read(output_tuples);
  s.inversions = read(inversions);
  return s;
}

Result<RuntimeCore> RuntimeCore::Make(const QuerySpec& spec, Mode mode,
                                      obs::MetricsRegistry* metrics,
                                      bool discard_output) {
  RuntimeCore core;
  PULSE_ASSIGN_OR_RETURN(TransformedPlan transformed, BuildPulsePlan(spec));
  PULSE_ASSIGN_OR_RETURN(PulseExecutor exec,
                         PulseExecutor::Make(std::move(transformed.plan)));
  core.executor_ = std::make_unique<PulseExecutor>(std::move(exec));
  core.executor_->set_discard_output(discard_output);
  if (metrics != nullptr) {
    core.metrics_ = metrics;
  } else {
    core.owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    core.metrics_ = core.owned_metrics_.get();
  }
  core.executor_->set_metrics_registry(core.metrics_);
  core.counters_ = Counters::Bind(core.metrics_, mode);
  for (const auto& [name, stream] : spec.streams()) {
    core.streams_.push_back(name);
  }
  return core;
}

void RuntimeCore::SortFinishTail(std::vector<Segment>* outputs,
                                 size_t from) {
  std::stable_sort(
      outputs->begin() + static_cast<std::ptrdiff_t>(from), outputs->end(),
      [](const Segment& a, const Segment& b) { return a.key < b.key; });
}

Result<size_t> RuntimeCore::AcceptTuples(const std::string& stream,
                                         size_t n) {
  if (memo_stream_ >= streams_.size() || streams_[memo_stream_] != stream) {
    auto it = std::find(streams_.begin(), streams_.end(), stream);
    if (it == streams_.end()) {
      return Status::NotFound("stream '" + stream + "' not declared");
    }
    memo_stream_ = static_cast<size_t>(it - streams_.begin());
  }
  counters_.tuples_in->Add(n);
  return memo_stream_;
}

Status RuntimeCore::PushSegment(const std::string& stream,
                                Segment segment) {
  const uint64_t before = executor_->total_output();
  {
    // Scope spans fired inside the push (PULSE_SPAN sites in the
    // executor and operators) to this runtime's registry.
    obs::ScopedMetricsRegistry scoped(metrics_);
    PULSE_SPAN("runtime/push_segment");
    PULSE_RETURN_IF_ERROR(
        executor_->PushSegment(stream, std::move(segment)));
  }
  counters_.segments_pushed->Increment();
  counters_.output_segments->Add(executor_->total_output() - before);
  return Status::OK();
}

Status RuntimeCore::Finish(size_t finish_tail) {
  const uint64_t before = executor_->total_output();
  {
    obs::ScopedMetricsRegistry scoped(metrics_);
    PULSE_RETURN_IF_ERROR(executor_->Finish());
  }
  counters_.output_segments->Add(executor_->total_output() - before);
  SortFinishTail(&executor_->output(), finish_tail);
  return Status::OK();
}

Result<PredictiveRuntime> PredictiveRuntime::Make(const QuerySpec& spec,
                                                  Options options) {
  // The executor keeps every output even when collection is off: bound
  // inversion reads each one (HandleOutputs drops them afterwards).
  PULSE_ASSIGN_OR_RETURN(
      RuntimeCore core,
      RuntimeCore::Make(spec, RuntimeCore::Mode::kPredictive,
                        options.metrics, /*discard_output=*/false));
  PredictiveRuntime rt(std::move(core));
  rt.options_ = std::move(options);
  if (rt.options_.split == nullptr) {
    rt.options_.split = std::make_shared<EquiSplit>();
  }
  rt.inverter_ = std::make_unique<QueryInverter>(&rt.core_.plan(),
                                                 rt.options_.split);
  rt.bound_registry_ = std::make_unique<BoundRegistry>();
  rt.validator_ =
      std::make_unique<AlternatingValidator>(rt.bound_registry_.get());
  for (const auto& [name, stream] : spec.streams()) {
    PULSE_ASSIGN_OR_RETURN(SegmentModelBuilder builder,
                           SegmentModelBuilder::Make(stream));
    StreamState state{std::move(builder), {}, {}};
    // Pre-resolve the clauses worth validating: modeled attributes the
    // query references that are also observable on the tuple.
    const std::set<std::string> used = CollectStreamAttributes(spec, name);
    // Clause pointers target the builder's own StreamSpec copy; the
    // vector buffer survives the moves below.
    for (const ModelClause& clause : state.builder.spec().models) {
      if (!used.empty() && used.count(clause.modeled_attribute) == 0) {
        continue;
      }
      Result<size_t> idx =
          stream.schema->IndexOf(clause.modeled_attribute);
      if (!idx.ok()) continue;  // not observable: cannot validate
      state.clauses.push_back(ValidationClause{&clause, *idx});
    }
    rt.streams_.push_back(std::move(state));
  }
  if (rt.options_.sample_rate > 0.0) {
    rt.sampler_.emplace(SamplerOptions{rt.options_.sample_rate, 0.0});
  }
  return rt;
}

namespace {

// Slack contributed by the consumer behind one plan edge: the smallest
// value deviation of `segment` that could change some selective gate's
// answer. Walks THROUGH operators that reshape segments without gating
// on values — epoch and distinct pass attributes unchanged, map derives
// new attributes by a pure transform — so a detection chain like
// stream -> epoch -> filter -> distinct yields the filter's threshold
// distance, not infinity. An infinite slack here would let a stale
// baseline model "explain" an attack for the rest of its horizon
// (tuples deviating by any amount are skipped), which is exactly the
// failure the telemetry workload exposed.
double EdgeSlack(const PulsePlan& plan, const PulsePlan::Edge& e,
                 const Segment& segment, int depth);

double DownstreamSlack(const PulsePlan& plan, PulsePlan::NodeId id,
                       const Segment& segment, int depth) {
  double slack = std::numeric_limits<double>::infinity();
  for (const PulsePlan::Edge& e : plan.downstream(id)) {
    slack = std::min(slack, EdgeSlack(plan, e, segment, depth));
  }
  return slack;
}

double EdgeSlack(const PulsePlan& plan, const PulsePlan::Edge& e,
                 const Segment& segment, int depth) {
  if (depth > 8) return 0.0;  // cycle guard: force revalidation
  PulseOperator* op = plan.node(e.to);
  if (auto* filter = dynamic_cast<PulseFilter*>(op)) {
    Result<double> s = filter->ComputeSlack(segment);
    return s.ok() ? *s : std::numeric_limits<double>::infinity();
  }
  if (auto* join = dynamic_cast<PulseJoin*>(op)) {
    Result<double> s = join->ComputeSlack(e.port, segment);
    return s.ok() ? *s : std::numeric_limits<double>::infinity();
  }
  if (auto* agg = dynamic_cast<PulseMinMaxAggregate*>(op)) {
    Result<double> s = agg->ComputeSlack(segment);
    return s.ok() ? *s : std::numeric_limits<double>::infinity();
  }
  if (dynamic_cast<PulseEpoch*>(op) != nullptr ||
      dynamic_cast<PulseDistinct*>(op) != nullptr) {
    // Pure time-reshaping: attribute polynomials pass through unchanged,
    // so the gate (if any) lives further downstream.
    return DownstreamSlack(plan, e.to, segment, depth + 1);
  }
  if (auto* map = dynamic_cast<PulseMap*>(op)) {
    Result<Segment> mapped = map->Apply(segment);
    if (!mapped.ok()) return 0.0;
    // Deviations of d in each input move a difference output by at most
    // 2d, so half the downstream slack is safe for differences.
    // distance2 has value-dependent gradients, so the same halving is
    // heuristic there — an over-large slack only postpones revalidation
    // within the segment horizon, the same precision trade slack mode
    // already makes (paper Section IV).
    return 0.5 * DownstreamSlack(plan, e.to, *mapped, depth + 1);
  }
  // Operators without a selective gate (sum/avg aggregates and their
  // group-bys) produce no "near miss" notion: a null result there
  // only means the window has not warmed up. Leave the slack infinite
  // so the model keeps explaining tuples; accuracy margins take over
  // once the query produces results and bounds are inverted, and the
  // segment horizon bounds model staleness regardless.
  return std::numeric_limits<double>::infinity();
}

}  // namespace

double PredictiveRuntime::SourceSlack(const std::string& stream,
                                      const Segment& segment) {
  double slack = std::numeric_limits<double>::infinity();
  const PulsePlan& plan = core_.plan();
  for (const PulsePlan::Edge& e : plan.source_bindings(stream)) {
    slack = std::min(slack, EdgeSlack(plan, e, segment, 0));
  }
  return slack;
}

Status PredictiveRuntime::HandleOutputs(size_t from) {
  std::vector<Segment>& outputs = core_.outputs();
  if (from == outputs.size()) return Status::OK();
  const RuntimeCore::Counters& counters = core_.counters();
  const PulsePlan& plan = core_.plan();
  const std::vector<PulsePlan::NodeId> sinks = plan.SinkNodes();
  for (size_t i = from; i < outputs.size(); ++i) {
    const Segment& out = outputs[i];
    // Invert each user bound through whichever sink produced this
    // segment (identified by lineage ownership).
    for (const BoundSpec& spec : options_.bounds) {
      for (PulsePlan::NodeId sink : sinks) {
        if (plan.node(sink)->LookupCauses(out) == nullptr) continue;
        Status st = inverter_->InvertForOutput(sink, out, spec,
                                               bound_registry_.get());
        if (st.ok()) counters.inversions->Increment();
        break;
      }
    }
    if (sampler_.has_value()) {
      std::vector<std::string> attrs;
      for (const auto& [name, _] : out.attributes) attrs.push_back(name);
      std::vector<Tuple> sampled = sampler_->Sample(out, attrs);
      counters.output_tuples->Add(sampled.size());
      if (options_.collect_outputs) {
        output_tuples_.insert(output_tuples_.end(), sampled.begin(),
                              sampled.end());
      }
    }
  }
  if (!options_.collect_outputs) {
    outputs.erase(outputs.begin() + static_cast<std::ptrdiff_t>(from),
                  outputs.end());
  }
  return Status::OK();
}

void PredictiveRuntime::BindModel(const StreamState& state,
                                  ActiveModel* model) {
  model->polys.clear();
  model->polys.reserve(state.clauses.size());
  for (const ValidationClause& vc : state.clauses) {
    auto it = model->segment.attributes.find(vc.clause->modeled_attribute);
    model->polys.push_back(it == model->segment.attributes.end()
                               ? nullptr
                               : &it->second);
  }
}

void PredictiveRuntime::RefreshMargins(const StreamState& state, Key key,
                                       ActiveModel* model) const {
  model->margins.resize(state.clauses.size());
  for (size_t i = 0; i < state.clauses.size(); ++i) {
    model->margins[i] = bound_registry_->Margin(
        key, state.clauses[i].clause->modeled_attribute);
  }
  model->margin_version = bound_registry_->version();
}

Status PredictiveRuntime::ProcessTuples(const std::string& stream,
                                        const Tuple* tuples, size_t n) {
  PULSE_ASSIGN_OR_RETURN(size_t index, core_.AcceptTuples(stream, n));
  uint64_t validated = 0;
  Status status = Status::OK();
  for (size_t i = 0; i < n && status.ok(); ++i) {
    status = ProcessAccepted(index, tuples[i], &validated);
  }
  core_.counters().tuples_validated->Add(validated);
  return status;
}

Status PredictiveRuntime::ProcessAccepted(size_t index, const Tuple& tuple,
                                          uint64_t* validated) {
  StreamState* state = &streams_[index];
  const SegmentModelBuilder& builder = state->builder;
  const Key key = builder.KeyOf(tuple);

  // Fast path: the tuple is explained by the active predictive model.
  // This is what makes Pulse cheap — an explained tuple costs one hash
  // probe plus a polynomial evaluation and comparison per validated
  // attribute, never touching the solver or a shared counter (paper
  // Section IV).
  auto cit = state->current.find(key);
  if (cit != state->current.end() &&
      cit->second.segment.range.Contains(tuple.timestamp)) {
    ActiveModel& model = cit->second;
    if (model.margin_version != bound_registry_->version()) {
      RefreshMargins(*state, key, &model);
    }
    bool explained = true;
    for (size_t i = 0; i < state->clauses.size(); ++i) {
      const Polynomial* poly = model.polys[i];
      if (poly == nullptr) continue;
      const double actual =
          tuple.at(state->clauses[i].observed_index).as_double();
      const double deviation =
          std::abs(actual - poly->Evaluate(tuple.timestamp));
      // Accuracy mode checks the inverted margin; slack mode ignores
      // anything below the recorded slack (Section IV alternation).
      const double allowance = model.mode == ValidationMode::kAccuracy
                                   ? model.margins[i]
                                   : model.slack;
      if (deviation > allowance) {
        explained = false;
        break;
      }
    }
    if (explained) {
      ++*validated;
      return Status::OK();
    }
    core_.counters().violations->Increment();
  }

  // Rebuild the model from this tuple and reprocess.
  PULSE_ASSIGN_OR_RETURN(Segment segment, builder.BuildSegment(tuple));
  ActiveModel& model = state->current[key];
  // Backfill horizon gaps: when the previous segment expired shortly
  // before this tuple, extend the new model backward to its end so
  // downstream window aggregates see contiguous coverage (the new model
  // extrapolates over the gap the validated tuples already covered).
  const double prev_end = model.segment.range.hi;
  if (!model.segment.range.IsEmpty() && prev_end <= tuple.timestamp &&
      tuple.timestamp - prev_end <
          state->builder.spec().segment_horizon) {
    segment.range.lo = prev_end;
  }
  model.segment = segment;
  BindModel(*state, &model);
  RefreshMargins(*state, key, &model);
  const std::string& stream = core_.stream_name(index);
  const size_t from = core_.outputs().size();
  PULSE_RETURN_IF_ERROR(core_.PushSegment(stream, std::move(segment)));
  const bool produced = core_.outputs().size() > from;
  PULSE_RETURN_IF_ERROR(HandleOutputs(from));
  if (produced) {
    model.mode = ValidationMode::kAccuracy;
    model.slack = 0.0;
    validator_->ObserveResult(key, true, 0.0);
  } else {
    // Record slack so subsequent tuples take the cheaper slack test
    // (paper Section IV).
    const double slack = SourceSlack(stream, model.segment);
    model.mode = ValidationMode::kSlack;
    model.slack = slack;
    validator_->ObserveResult(key, false, slack);
  }
  return Status::OK();
}

Status PredictiveRuntime::Finish() {
  const size_t tail = core_.outputs().size();
  PULSE_RETURN_IF_ERROR(core_.Finish(tail));
  return HandleOutputs(tail);
}

std::vector<Tuple> PredictiveRuntime::TakeOutputTuples() {
  std::vector<Tuple> out = std::move(output_tuples_);
  output_tuples_.clear();
  return out;
}

void MultiAttributeSegmenter::Moments::Reset(size_t d) {
  *this = Moments();
  degree = d;
}

void MultiAttributeSegmenter::Moments::AddPoint(double tau, double v) {
  double p = 1.0;
  for (size_t k = 0; k <= 2 * degree; ++k) {
    s[k] += p;
    if (k <= degree) b[k] += v * p;
    p *= tau;
  }
  vv += v * v;
}

size_t MultiAttributeSegmenter::Moments::Fit(size_t count,
                                             double* coeffs) const {
  // Clamp the fitted degree while the piece is short, then solve the
  // (d+1)x(d+1) normal equations by in-place Gaussian elimination on a
  // stack buffer.
  const size_t d = std::min(degree, count - 1);
  const size_t n = d + 1;
  double a[(kMaxDegree + 1) * (kMaxDegree + 2)];
  for (size_t j = 0; j < n; ++j) {
    for (size_t k = 0; k < n; ++k) a[j * (n + 1) + k] = s[j + k];
    a[j * (n + 1) + n] = b[j];
  }
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r * (n + 1) + col]) >
          std::abs(a[pivot * (n + 1) + col])) {
        pivot = r;
      }
    }
    if (std::abs(a[pivot * (n + 1) + col]) < 1e-12) return 0;
    if (pivot != col) {
      for (size_t c = 0; c <= n; ++c) {
        std::swap(a[col * (n + 1) + c], a[pivot * (n + 1) + c]);
      }
    }
    const double inv = 1.0 / a[col * (n + 1) + col];
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = a[r * (n + 1) + col] * inv;
      for (size_t c = col; c <= n; ++c) {
        a[r * (n + 1) + c] -= factor * a[col * (n + 1) + c];
      }
    }
  }
  for (size_t r = n; r-- > 0;) {
    double acc = a[r * (n + 1) + n];
    for (size_t c = r + 1; c < n; ++c) acc -= a[r * (n + 1) + c] * coeffs[c];
    coeffs[r] = acc / a[r * (n + 1) + r];
  }
  return n;
}

double MultiAttributeSegmenter::Moments::Rms(const double* coeffs, size_t n,
                                             size_t count) const {
  // RSS = sum v^2 - x^T b for the least-squares solution.
  double rss = vv;
  for (size_t k = 0; k < n; ++k) rss -= coeffs[k] * b[k];
  if (rss < 0.0) rss = 0.0;  // roundoff
  return std::sqrt(rss / static_cast<double>(count));
}

MultiAttributeSegmenter::MultiAttributeSegmenter(StreamSpec spec,
                                                 SegmentationOptions options)
    : spec_(std::move(spec)), options_(options) {
  PULSE_CHECK(options_.degree <= kMaxDegree);
  Result<size_t> key_idx = spec_.schema->IndexOf(spec_.key_field);
  PULSE_CHECK(key_idx.ok());
  key_index_ = *key_idx;
  for (const ModelClause& clause : spec_.models) {
    Result<size_t> idx = spec_.schema->IndexOf(clause.modeled_attribute);
    PULSE_CHECK(idx.ok());
    attr_indices_.push_back(*idx);
  }
}

void MultiAttributeSegmenter::ResetWith(PerKey* state,
                                        const Tuple& tuple) const {
  state->active = true;
  state->t0 = tuple.timestamp;
  state->last_t = tuple.timestamp;
  state->count = 1;
  state->attrs.resize(attr_indices_.size());
  for (size_t m = 0; m < attr_indices_.size(); ++m) {
    state->attrs[m].Reset(options_.degree);
    state->attrs[m].AddPoint(0.0, tuple.at(attr_indices_[m]).as_double());
  }
}

Result<std::optional<Segment>> MultiAttributeSegmenter::CloseSegment(
    Key key, const PerKey& state) const {
  if (!state.active || state.count == 0) {
    return std::optional<Segment>(std::nullopt);
  }
  Segment seg;
  seg.id = NextSegmentId();
  seg.key = key;
  const double lo = state.t0;
  double hi = state.last_t + state.last_gap;
  if (hi <= lo) hi = lo + 1e-9;
  seg.range = Interval::ClosedOpen(lo, hi);
  for (size_t m = 0; m < attr_indices_.size(); ++m) {
    const Moments& mm = state.attrs[m];
    double buf[kMaxDegree + 1];
    size_t n;
    if (mm.good_n > 0) {
      // The cached fit excludes the breaking point.
      std::copy(mm.good, mm.good + mm.good_n, buf);
      n = mm.good_n;
    } else {
      n = mm.Fit(state.count, buf);
      if (n == 0) {
        // Degenerate geometry: fall back to the running mean.
        buf[0] = mm.b[0] / static_cast<double>(state.count);
        n = 1;
      }
    }
    // Local-time fit -> absolute-time model (straight from the stack
    // buffer into inline polynomial storage).
    const Polynomial local{buf, n};
    seg.set_attribute(spec_.models[m].modeled_attribute,
                      local.Shift(-state.t0));
  }
  return std::optional<Segment>(std::move(seg));
}

Result<std::optional<Segment>> MultiAttributeSegmenter::Add(
    const Tuple& tuple) {
  const Key key = tuple.at(key_index_).as_int64();
  PerKey& state = keys_[key];
  if (!state.active) {
    ResetWith(&state, tuple);
    return std::optional<Segment>(std::nullopt);
  }
  state.last_gap = std::max(0.0, tuple.timestamp - state.last_t);

  // Include the point, refit each attribute incrementally, and test the
  // RMS bound. On acceptance the fit is cached; on a break the piece is
  // closed from the cached fit (which excludes the breaking point), so
  // there is neither a trial copy nor a rollback refit on the hot path.
  const double tau = tuple.timestamp - state.t0;
  const size_t new_count = state.count + 1;
  bool breaks = options_.max_points_per_segment > 0 &&
                new_count > options_.max_points_per_segment;
  if (!breaks) {
    for (size_t m = 0; m < attr_indices_.size(); ++m) {
      state.attrs[m].AddPoint(tau, tuple.at(attr_indices_[m]).as_double());
    }
    for (size_t m = 0; m < attr_indices_.size() && !breaks; ++m) {
      Moments& mm = state.attrs[m];
      double buf[kMaxDegree + 1];
      const size_t n = mm.Fit(new_count, buf);
      const bool warmup = new_count <= options_.degree + 1;
      if (n == 0 ||
          (!warmup && mm.Rms(buf, n, new_count) > options_.max_error)) {
        breaks = true;
        break;
      }
      std::copy(buf, buf + n, mm.good);
      mm.good_n = n;
    }
  }
  if (!breaks) {
    state.count = new_count;
    state.last_t = tuple.timestamp;
    return std::optional<Segment>(std::nullopt);
  }
  // The newest tuple broke the piece: close everything before it (from
  // the cached pre-break fits) and start the next piece from the
  // breaking tuple.
  PULSE_ASSIGN_OR_RETURN(std::optional<Segment> closed,
                         CloseSegment(key, state));
  ResetWith(&state, tuple);
  return closed;
}

Result<std::vector<Segment>> MultiAttributeSegmenter::Flush() {
  std::vector<Segment> out;
  for (auto& [key, state] : keys_) {
    PULSE_ASSIGN_OR_RETURN(std::optional<Segment> closed,
                           CloseSegment(key, state));
    if (closed.has_value()) out.push_back(std::move(*closed));
    state.active = false;
  }
  keys_.clear();
  return out;
}

Result<HistoricalRuntime> HistoricalRuntime::Make(const QuerySpec& spec,
                                                  Options options) {
  if (options.segmentation.degree > MultiAttributeSegmenter::kMaxDegree) {
    return Status::InvalidArgument(
        "segmentation degree " + std::to_string(options.segmentation.degree) +
        " exceeds the modeler's maximum of " +
        std::to_string(MultiAttributeSegmenter::kMaxDegree));
  }
  PULSE_ASSIGN_OR_RETURN(
      RuntimeCore core,
      RuntimeCore::Make(spec, RuntimeCore::Mode::kHistorical,
                        options.metrics, !options.collect_outputs));
  HistoricalRuntime rt(std::move(core));
  for (const auto& [name, stream] : spec.streams()) {
    rt.segmenters_.emplace_back(stream, options.segmentation);
  }
  return rt;
}

Status HistoricalRuntime::ProcessTuples(const std::string& stream,
                                        const Tuple* tuples, size_t n) {
  PULSE_ASSIGN_OR_RETURN(size_t index, core_.AcceptTuples(stream, n));
  MultiAttributeSegmenter& segmenter = segmenters_[index];
  for (size_t i = 0; i < n; ++i) {
    PULSE_ASSIGN_OR_RETURN(std::optional<Segment> seg,
                           segmenter.Add(tuples[i]));
    if (seg.has_value()) {
      PULSE_RETURN_IF_ERROR(core_.PushSegment(stream, std::move(*seg)));
    }
  }
  return Status::OK();
}

Status HistoricalRuntime::Finish() {
  const size_t tail = core_.outputs().size();
  for (size_t i = 0; i < segmenters_.size(); ++i) {
    PULSE_ASSIGN_OR_RETURN(std::vector<Segment> segs, segmenters_[i].Flush());
    for (Segment& s : segs) {
      PULSE_RETURN_IF_ERROR(
          core_.PushSegment(core_.stream_name(i), std::move(s)));
    }
  }
  return core_.Finish(tail);
}

}  // namespace pulse
