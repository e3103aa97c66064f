#ifndef PULSE_CORE_RUNTIME_H_
#define PULSE_CORE_RUNTIME_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/pulse_plan.h"
#include "core/query.h"
#include "core/sampler.h"
#include "core/transform.h"
#include "core/validation/bounds.h"
#include "core/validation/inversion.h"
#include "core/validation/slack.h"
#include "core/validation/splits.h"
#include "engine/tuple.h"
#include "model/segment.h"
#include "obs/metrics.h"
#include "util/result.h"

namespace pulse {

/// End-to-end counters for a runtime session: a point-in-time VIEW
/// assembled by stats() from the runtime's MetricsRegistry handles — a
/// plain value, safe to keep after the runtime is gone. The authoritative
/// counters live in the registry under the names documented in
/// docs/OBSERVABILITY.md (runtime/..., op/...).
struct RuntimeStats {
  uint64_t tuples_in = 0;
  /// Tuples explained by the current model within bounds/slack — dropped
  /// without touching the solver.
  uint64_t tuples_validated = 0;
  /// Bound or slack violations (each triggers model rebuild + resolve).
  uint64_t violations = 0;
  uint64_t segments_pushed = 0;
  uint64_t output_segments = 0;
  uint64_t output_tuples = 0;
  uint64_t inversions = 0;
};

/// What both processing modes share (paper Section II-A: predictive and
/// historical processing run the same transformed plan through the same
/// solver and differ only in how tuples become segments). The core owns
/// the executor, the metrics registry (owned or borrowed), the runtime/*
/// counters, the declared-stream table, and the output buffer with its
/// canonical finish order; HistoricalRuntime and PredictiveRuntime are
/// two front-ends on it.
class RuntimeCore {
 public:
  /// The front-end a core serves. It fixes which runtime/* counters the
  /// registry exports: historical the 3 it can move, predictive all 7.
  enum class Mode { kHistorical, kPredictive };

  /// Handles into a registry (stable for its lifetime); the counters a
  /// mode does not export stay nullptr and Read() as 0. Bind is the one
  /// place the runtime/* names are spelled.
  struct Counters {
    obs::Counter* tuples_in = nullptr;
    obs::Counter* tuples_validated = nullptr;
    obs::Counter* violations = nullptr;
    obs::Counter* segments_pushed = nullptr;
    obs::Counter* output_segments = nullptr;
    obs::Counter* output_tuples = nullptr;
    obs::Counter* inversions = nullptr;

    static Counters Bind(obs::MetricsRegistry* registry, Mode mode);
    RuntimeStats Read() const;
  };

  /// `metrics` nullptr gives the core a private registry, so counters
  /// from concurrent runtimes in one process never mix. With
  /// `discard_output` the executor counts outputs without keeping them.
  static Result<RuntimeCore> Make(const QuerySpec& spec, Mode mode,
                                  obs::MetricsRegistry* metrics,
                                  bool discard_output);

  /// Canonical finish order: sorts (*outputs)[from, end) stably by key.
  /// Residual flushes interleave keys in hash order, an implementation
  /// accident; the sort makes the finish tail's order a contract. Every
  /// key keeps its relative order, so a key-partitioned run
  /// (docs/SHARDING.md) reproduces the serial tail by concatenating its
  /// per-shard finish outputs and applying the same sort.
  static void SortFinishTail(std::vector<Segment>* outputs, size_t from);

  /// Declared streams in QuerySpec order; front-ends keep their
  /// per-stream state as vectors over this dense index.
  const std::string& stream_name(size_t index) const {
    return streams_[index];
  }

  /// Admits `n` tuples of `stream`: returns its dense index (memoized
  /// across consecutive same-stream calls) and counts the tuples into
  /// runtime/tuples_in. An undeclared stream is NotFound and counts
  /// nothing.
  Result<size_t> AcceptTuples(const std::string& stream, size_t n);

  /// Pushes one segment through the plan under the runtime/push_segment
  /// span; its outputs append to outputs().
  Status PushSegment(const std::string& stream, Segment segment);

  /// End of input: flushes the executor, then sorts the outputs from
  /// `finish_tail` (where the caller's finish phase began) on.
  Status Finish(size_t finish_tail);

  /// Outputs not yet taken (always empty with discard_output).
  std::vector<Segment>& outputs() { return executor_->output(); }
  std::vector<Segment> TakeOutputSegments() { return executor_->TakeOutput(); }

  const Counters& counters() const { return counters_; }
  RuntimeStats stats() const { return counters_.Read(); }
  obs::MetricsRegistry* metrics() const { return metrics_; }
  const PulsePlan& plan() const { return executor_->plan(); }

 private:
  RuntimeCore() = default;

  // Declared before the executor: its operators' state_size levels
  // (obs::GaugeLevel) leave the registry's gauges on destruction, so the
  // registry must outlive them.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<PulseExecutor> executor_;
  Counters counters_;
  std::vector<std::string> streams_;
  size_t memo_stream_ = 0;
};

/// Online predictive processing (paper Section II-A): models of unseen
/// data are built from arriving tuples via the MODEL clause, query results
/// are precomputed off into the future, and subsequent tuples are only
/// *validated* against the model within inverted accuracy/slack bounds —
/// the query is re-solved only on violations.
class PredictiveRuntime {
 public:
  struct Options {
    /// Output accuracy bounds, inverted to the inputs on first results.
    std::vector<BoundSpec> bounds;
    /// Split heuristic (default EquiSplit).
    std::shared_ptr<const SplitHeuristic> split;
    /// Output sampling rate; 0 keeps results as segments only.
    double sample_rate = 0.0;
    /// Retain output segments/tuples in memory (disable for long runs).
    bool collect_outputs = true;
    /// Registry all runtime/operator counters report through. Must
    /// outlive the runtime. nullptr (the default) gives the runtime a
    /// private registry, so counters from concurrent runtimes in one
    /// process never mix; pass a shared registry to aggregate instead.
    obs::MetricsRegistry* metrics = nullptr;
  };

  static Result<PredictiveRuntime> Make(const QuerySpec& spec,
                                        Options options);

  /// Feeds one arriving tuple. Either the tuple validates against the
  /// current model (cheap path) or the model is rebuilt and pushed
  /// through the equation-system plan.
  Status ProcessTuple(const std::string& stream, const Tuple& tuple) {
    return ProcessTuples(stream, &tuple, 1);
  }

  /// Batch feed: exactly equivalent to calling ProcessTuple on each
  /// element in order (batch boundaries can never change results, see
  /// docs/SERVING.md). runtime/tuples_validated moves once per call, also
  /// when the call fails part-way, so stats() read between calls is the
  /// same whatever the batching.
  Status ProcessTuples(const std::string& stream, const Tuple* tuples,
                       size_t n);

  /// End of input: flush residual operator state.
  Status Finish();

  /// Point-in-time view over the registry counters (see RuntimeStats).
  RuntimeStats stats() const { return core_.stats(); }

  /// The registry this runtime reports through (owned unless
  /// Options::metrics was set).
  obs::MetricsRegistry* metrics() const { return core_.metrics(); }

  std::vector<Segment> TakeOutputSegments() {
    return core_.TakeOutputSegments();
  }
  std::vector<Tuple> TakeOutputTuples();

  const PulsePlan& plan() const { return core_.plan(); }
  const BoundRegistry& bounds() const { return *bound_registry_; }
  const AlternatingValidator& validator() const { return *validator_; }

 private:
  explicit PredictiveRuntime(RuntimeCore core) : core_(std::move(core)) {}

  // Per-stream runtime state. The tuple hot path touches this once per
  // tuple, so everything it needs is pre-resolved: the validated model
  // clauses (only the attributes the query actually references — others
  // cannot influence results and need no validation), the observed-field
  // indices, and per-key caches of model polynomials, margins, and the
  // accuracy/slack mode.
  struct ValidationClause {
    const ModelClause* clause = nullptr;
    size_t observed_index = 0;  // tuple field holding the observed value
  };

  struct ActiveModel {
    Segment segment;
    // Parallel to StreamState::clauses: the model polynomial (pointer
    // into segment.attributes, stable) and the cached inverted margin.
    std::vector<const Polynomial*> polys;
    std::vector<double> margins;
    uint64_t margin_version = ~uint64_t{0};
    ValidationMode mode = ValidationMode::kAccuracy;
    double slack = 0.0;
  };

  struct StreamState {
    SegmentModelBuilder builder;
    std::vector<ValidationClause> clauses;
    // Only ever probed by key, never iterated; elements stay put across
    // rehashes, so ProcessAccepted may hold a reference while it pushes.
    std::unordered_map<Key, ActiveModel> current;
  };

  // One tuple past the core's stream lookup. Counts an explained tuple
  // into *validated; the caller adds the total to the registry once.
  Status ProcessAccepted(size_t index, const Tuple& tuple,
                         uint64_t* validated);
  // Slack of `segment` against the plan's source operators for `stream`.
  double SourceSlack(const std::string& stream, const Segment& segment);
  // Inverts bounds through / samples the core's outputs from `from` on,
  // then drops them again unless collection is enabled.
  Status HandleOutputs(size_t from);
  // Rebuilds the polynomial pointers after (re)installing a segment.
  static void BindModel(const StreamState& state, ActiveModel* model);
  // Refreshes cached margins from the bound registry.
  void RefreshMargins(const StreamState& state, Key key,
                      ActiveModel* model) const;

  RuntimeCore core_;
  Options options_;
  std::unique_ptr<QueryInverter> inverter_;
  std::vector<StreamState> streams_;  // by the core's stream index
  // Heap-allocated so the registry's address is stable across moves of
  // the runtime (the validator holds a pointer to it).
  std::unique_ptr<BoundRegistry> bound_registry_;
  std::unique_ptr<AlternatingValidator> validator_;
  std::optional<Sampler> sampler_;
  std::vector<Tuple> output_tuples_;
};

/// Configuration of the online modeler, MultiAttributeSegmenter. Each
/// closed piece's range is extended by the trailing inter-arrival gap, so
/// consecutive pieces of one key tile time without holes.
struct SegmentationOptions {
  /// Polynomial degree of each piece (1 = the paper's piecewise-linear
  /// historical models, Section V-A "online segmentation-based algorithm
  /// [13] to find a piecewise linear model"). At most
  /// MultiAttributeSegmenter::kMaxDegree; HistoricalRuntime::Make rejects
  /// a larger degree.
  size_t degree = 1;
  /// A piece is closed when the next sample would push any modeled
  /// attribute's RMS residual over the piece above this bound. Single
  /// samples can lie farther than this from their piece's model; holding
  /// every sample within the bound is ROADMAP item 13.
  double max_error = 1.0;
  /// Upper bound on samples per piece (0 = unlimited).
  size_t max_points_per_segment = 0;
};

/// Joint multi-attribute online segmentation in the style of Keogh et
/// al.'s sliding window (the paper's [13]): one piece breaks when ANY
/// modeled attribute's least-squares fit exceeds the error bound, so a
/// segment carries a consistent set of models (used by historical
/// processing to fit e.g. AIS longitude and latitude together).
///
/// The fit is maintained *incrementally* through running moments
/// (Vandermonde normal-equation sums in segment-local time), so each Add
/// costs O(degree^3) independent of the piece length — this is what lets
/// the modeling operator outrun tuple-by-tuple query processing in the
/// paper's Fig. 8. The error bound is enforced on the RMS residual
/// (computable from the moments).
class MultiAttributeSegmenter {
 public:
  /// Hard cap on the polynomial degree; keeps the per-tuple moment state
  /// fixed-size and allocation-free.
  static constexpr size_t kMaxDegree = 4;

  /// `options.degree` must be at most kMaxDegree.
  MultiAttributeSegmenter(StreamSpec spec, SegmentationOptions options);

  /// Feeds one tuple (all keys multiplexed; per-key state inside).
  /// Returns the closed segment when one completes.
  Result<std::optional<Segment>> Add(const Tuple& tuple);

  /// Closes all pending per-key pieces.
  Result<std::vector<Segment>> Flush();

 private:
  // Running least-squares moments of one attribute in local time
  // tau = t - t0:  s[k] = sum tau^k (k <= 2d), b[k] = sum v * tau^k
  // (k <= d), vv = sum v^2. Fixed-capacity so trial copies are memcpys.
  struct Moments {
    double s[2 * kMaxDegree + 1] = {};
    double b[kMaxDegree + 1] = {};
    double vv = 0.0;
    size_t degree = 1;

    // Last accepted fit (the piece to close when the next point breaks).
    double good[kMaxDegree + 1] = {};
    size_t good_n = 0;

    void Reset(size_t degree);
    void AddPoint(double tau, double v);
    // Least-squares coefficients (local time) into `coeffs`; returns the
    // fitted degree + 1 (0 when singular). Allocation-free.
    size_t Fit(size_t count, double* coeffs) const;
    // RMS residual of the fitted coefficients.
    double Rms(const double* coeffs, size_t n, size_t count) const;
  };

  struct PerKey {
    bool active = false;
    double t0 = 0.0;       // segment-local time origin
    double last_t = 0.0;   // newest sample time
    double last_gap = 0.0;
    size_t count = 0;
    std::vector<Moments> attrs;  // one per modeled attribute
  };

  // Builds the closed segment from the current per-key fit state.
  Result<std::optional<Segment>> CloseSegment(Key key,
                                              const PerKey& state) const;
  void ResetWith(PerKey* state, const Tuple& tuple) const;

  StreamSpec spec_;
  SegmentationOptions options_;
  size_t key_index_ = 0;
  std::vector<size_t> attr_indices_;  // tuple field per modeled attribute
  std::unordered_map<Key, PerKey> keys_;
};

/// Offline historical processing (paper Section II-A): the modeling
/// component fits a continuous-time model of the historical stream once;
/// the resulting segments feed the transformed query (and can be replayed
/// into many what-if variants, amortizing the modeling cost).
class HistoricalRuntime {
 public:
  struct Options {
    SegmentationOptions segmentation;
    /// Keep outputs for TakeOutputSegments. false counts them only.
    bool collect_outputs = true;
    /// Registry all runtime/operator counters report through. Must
    /// outlive the runtime. nullptr (the default) gives the runtime a
    /// private registry, so counters from concurrent runtimes in one
    /// process never mix; pass a shared registry to aggregate instead.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// InvalidArgument when options.segmentation.degree exceeds
  /// MultiAttributeSegmenter::kMaxDegree.
  static Result<HistoricalRuntime> Make(const QuerySpec& spec,
                                        Options options);

  /// Feeds one historical tuple into the modeler; pushes any completed
  /// segment through the plan.
  Status ProcessTuple(const std::string& stream, const Tuple& tuple) {
    return ProcessTuples(stream, &tuple, 1);
  }

  /// Batch feed: result-equivalent to calling ProcessTuple on each
  /// element in order, with the segmenter lookup amortized across the
  /// batch (the serving worker dispatches each run of frames here).
  Status ProcessTuples(const std::string& stream, const Tuple* tuples,
                       size_t n);

  /// Pushes an already-fitted segment (segment replay mode — the paper's
  /// "processing segments alone (without modelling)" series in Fig. 9i).
  Status ProcessSegment(const std::string& stream, Segment segment) {
    return core_.PushSegment(stream, std::move(segment));
  }

  /// End of input: closes every pending piece, flushes the plan, and
  /// puts the finish-phase outputs in canonical key order.
  Status Finish();

  /// Point-in-time view over the registry counters (see RuntimeStats).
  RuntimeStats stats() const { return core_.stats(); }

  /// The registry this runtime reports through (owned unless
  /// Options::metrics was set).
  obs::MetricsRegistry* metrics() const { return core_.metrics(); }

  std::vector<Segment> TakeOutputSegments() {
    return core_.TakeOutputSegments();
  }
  const PulsePlan& plan() const { return core_.plan(); }

 private:
  explicit HistoricalRuntime(RuntimeCore core) : core_(std::move(core)) {}

  RuntimeCore core_;
  std::vector<MultiAttributeSegmenter> segmenters_;  // by stream index
};

}  // namespace pulse

#endif  // PULSE_CORE_RUNTIME_H_
