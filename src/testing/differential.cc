#include "testing/differential.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "core/operators/join.h"
#include "core/precision.h"
#include "core/runtime.h"
#include "core/transform.h"
#include "engine/epoch.h"
#include "engine/executor.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/sharded_runtime.h"
#include "store/recovery.h"
#include "util/cpu_features.h"
#include "util/logging.h"

namespace pulse {
namespace testing {

namespace {

// Allowed slop when locating a time inside solver-produced coverage:
// root refinement stops at kRootTolerance (1e-10), so any boundary of a
// Pulse validity range is within that of the exact predicate root.
constexpr double kTimeGuard = 1e-6;
// Identifies "the same instant" across representations (grid timestamps
// are re-derived by identical fp accumulation, so this only absorbs the
// round trip through close-index arithmetic).
constexpr double kGridEps = 1e-9;

double Tol(double bound) { return 1e-6 * std::max(1.0, bound); }

bool Near(double a, double b, double tol) {
  return std::fabs(a - b) <= tol;
}

bool CmpHolds(double lhs, CmpOp op, double rhs) {
  switch (op) {
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
  }
  return false;
}

// The sample grid, re-derived with the exact fp accumulation ToTuples
// uses so timestamps match bitwise.
std::vector<double> SampleGrid(const StreamWorkload& ws, double dt) {
  std::vector<double> grid;
  for (double t = ws.t_begin; t < ws.t_end - 1e-12; t += dt) {
    grid.push_back(t);
  }
  return grid;
}

// Per-key view of Pulse sink output: segments in arrival order (the
// last segment covering an instant is the current model — update
// semantics) plus their coverage union.
struct PulseTrack {
  std::vector<const Segment*> segments;
  IntervalSet coverage;
};

std::map<Key, PulseTrack> IndexByKey(const std::vector<Segment>& segments) {
  std::map<Key, PulseTrack> out;
  for (const Segment& s : segments) {
    if (s.range.IsEmpty()) continue;
    PulseTrack& track = out[s.key];
    track.segments.push_back(&s);
    track.coverage.Add(s.range);
  }
  return out;
}

// Last-arriving segment covering t; with `slack` > 0, ranges are widened
// by slack (hairline cracks between solver-produced ranges).
const Segment* FindCovering(const PulseTrack& track, double t,
                            double slack) {
  for (auto it = track.segments.rbegin(); it != track.segments.rend();
       ++it) {
    if ((*it)->range.Contains(t)) return *it;
  }
  if (slack > 0.0) {
    for (auto it = track.segments.rbegin(); it != track.segments.rend();
         ++it) {
      const Interval& r = (*it)->range;
      if (!r.IsEmpty() && t >= r.lo - slack && t <= r.hi + slack) {
        return *it;
      }
    }
  }
  return nullptr;
}

double DistanceToCoverage(const IntervalSet& coverage, double t) {
  double best = std::numeric_limits<double>::infinity();
  for (const Interval& iv : coverage.intervals()) {
    if (iv.Contains(t)) return 0.0;
    best = std::min(best, std::min(std::fabs(t - iv.lo),
                                   std::fabs(t - iv.hi)));
  }
  return best;
}

// True when [t - guard, t + guard] lies inside the coverage (interior
// instants, where both representations must agree unconditionally).
bool StrictlyInside(const IntervalSet& coverage, double t, double guard) {
  return coverage.Contains(t) && coverage.Contains(t - guard) &&
         coverage.Contains(t + guard);
}

class Reporter {
 public:
  Reporter(DiffReport* report, size_t max) : report_(report), max_(max) {}

  void Add(Divergence d) {
    ++report_->divergence_count;
    if (report_->divergences.size() < max_) {
      report_->divergences.push_back(std::move(d));
    }
  }

  bool full() const { return report_->divergence_count >= max_; }

 private:
  DiffReport* report_;
  size_t max_;
};

// ---------------------------------------------------------------------
// Runs

struct DiscreteRun {
  std::vector<Tuple> output;
  std::shared_ptr<const Schema> schema;
  obs::MetricsSnapshot metrics;
};

Result<DiscreteRun> RunDiscrete(const GeneratedCase& kase) {
  PULSE_ASSIGN_OR_RETURN(DiscretePlan dp, BuildDiscretePlan(kase.spec));
  if (dp.sink_schemas.size() != 1) {
    return Status::InvalidArgument(
        "differential cases must have exactly one sink");
  }
  DiscreteRun run;
  run.schema = dp.sink_schemas[0];
  obs::MetricsRegistry registry;
  PULSE_ASSIGN_OR_RETURN(Executor exec, Executor::Make(std::move(dp.plan)));
  exec.set_metrics_registry(&registry);

  // Merge the per-stream tuple sequences into one arrival order:
  // timestamp-major, stream declaration order within a timestamp (stable
  // sort keeps each stream's internal key order).
  struct Item {
    size_t stream;
    Tuple tuple;
  };
  std::vector<Item> items;
  for (size_t i = 0; i < kase.workloads.size(); ++i) {
    for (Tuple& t : kase.workloads[i].ToTuples(kase.sample_dt)) {
      items.push_back(Item{i, std::move(t)});
    }
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) {
                     return a.tuple.timestamp < b.tuple.timestamp;
                   });
  for (const Item& item : items) {
    PULSE_RETURN_IF_ERROR(
        exec.PushTuple(kase.workloads[item.stream].name, item.tuple));
  }
  PULSE_RETURN_IF_ERROR(exec.Finish());
  run.output = exec.TakeOutput();
  run.metrics = registry.Snapshot();
  return run;
}

// Segment arrival order shared by every metamorphic variant.
struct SegmentFeed {
  std::vector<std::pair<size_t, Segment>> items;  // (workload idx, segment)
};

SegmentFeed MakeSegmentFeed(const GeneratedCase& kase) {
  SegmentFeed feed;
  for (size_t i = 0; i < kase.workloads.size(); ++i) {
    for (Segment& s : kase.workloads[i].ToSegments()) {
      feed.items.push_back({i, std::move(s)});
    }
  }
  std::stable_sort(feed.items.begin(), feed.items.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.range.lo < b.second.range.lo;
                   });
  return feed;
}

struct PulseRun {
  std::vector<Segment> segments;
  obs::MetricsSnapshot metrics;
};

Result<PulseRun> RunPulse(const GeneratedCase& kase, const SegmentFeed& feed) {
  HistoricalRuntime::Options options;
  options.collect_outputs = true;
  PULSE_ASSIGN_OR_RETURN(HistoricalRuntime rt,
                         HistoricalRuntime::Make(kase.spec, options));
  for (const auto& [stream_idx, segment] : feed.items) {
    PULSE_RETURN_IF_ERROR(
        rt.ProcessSegment(kase.workloads[stream_idx].name, segment));
  }
  PULSE_RETURN_IF_ERROR(rt.Finish());
  PulseRun run;
  run.segments = rt.TakeOutputSegments();
  run.metrics = rt.metrics()->Snapshot();
  return run;
}

// Replays the same segment feed through the key-partitioned
// shard-per-core runtime: the ShardRouter spreads keys over
// `num_shards` worker threads, each running its own HistoricalRuntime,
// and the sequence-number merge plus canonical finish sort must
// reassemble the output byte-identically to the serial unsharded run
// (docs/SHARDING.md).
Result<std::vector<Segment>> RunPulseSharded(const GeneratedCase& kase,
                                             const SegmentFeed& feed,
                                             size_t num_shards) {
  shard::ShardedRuntimeOptions options;
  options.num_shards = num_shards;
  options.runtime.collect_outputs = true;
  PULSE_ASSIGN_OR_RETURN(
      shard::ShardedRuntime rt,
      shard::ShardedRuntime::Make(kase.spec, std::move(options)));
  for (const auto& [stream_idx, segment] : feed.items) {
    PULSE_RETURN_IF_ERROR(
        rt.ProcessSegment(kase.workloads[stream_idx].name, segment));
  }
  PULSE_RETURN_IF_ERROR(rt.Finish());
  return rt.TakeOutputSegments();
}

// Drives the same segment feed through the in-process serving stack:
// frame codec (doubles as IEEE-754 bit patterns), the session ingest
// queue shared by every stream, the in-order worker, and drain. The
// lossless configuration — kBlock backpressure, admission controller
// off — must deliver outputs byte-identical to the direct
// ProcessSegment replay above.
Result<std::vector<Segment>> RunPulseServing(const GeneratedCase& kase,
                                             const SegmentFeed& feed) {
  serve::ServerOptions options;
  options.spec = kase.spec;
  options.runtime.collect_outputs = true;
  options.session.policy = serve::BackpressurePolicy::kBlock;
  options.session.queue_capacity = 64;
  options.session.admission.enabled = false;
  PULSE_ASSIGN_OR_RETURN(std::unique_ptr<serve::StreamServer> server,
                         serve::StreamServer::Make(std::move(options)));
  PULSE_ASSIGN_OR_RETURN(std::unique_ptr<serve::Transport> conn,
                         server->ConnectInProcess());
  serve::ServeClient client(std::move(conn));
  PULSE_RETURN_IF_ERROR(client.Hello());
  for (size_t i = 0; i < kase.workloads.size(); ++i) {
    PULSE_RETURN_IF_ERROR(client.OpenStream(static_cast<uint32_t>(i),
                                            kase.workloads[i].name));
  }
  for (const auto& [stream_idx, segment] : feed.items) {
    PULSE_RETURN_IF_ERROR(
        client.SendSegment(static_cast<uint32_t>(stream_idx), segment));
  }
  PULSE_ASSIGN_OR_RETURN(serve::ServeClient::DrainResult drained,
                         client.Drain());
  if (drained.shed != 0 || drained.dropped != 0) {
    return Status::Internal(
        "lossless serving configuration shed/dropped input");
  }
  (void)client.Bye();
  server->Drain();
  return std::move(drained.output_segments);
}

// Kill-and-restore: feed the first k items through a durable runtime,
// checkpoint, destroy all process state, recover from disk, feed the
// rest, and stitch the three output stretches together. `verified` is
// recovery's own claim that the replayed prefix hash matched the
// checkpoint watermark; the caller additionally compares the stitched
// outputs against the uninterrupted base run.
struct KillRestoreRun {
  std::vector<Segment> segments;
  bool verified = false;
  std::string detail;
};

Result<KillRestoreRun> RunPulseKillRestore(const GeneratedCase& kase,
                                           const SegmentFeed& feed) {
  // A private temp directory per run: differential seeds execute
  // concurrently in the suite, so the store must not be shared.
  std::string dir_template =
      (std::filesystem::temp_directory_path() / "pulse_diff_store_XXXXXX")
          .string();
  if (mkdtemp(dir_template.data()) == nullptr) {
    return Status::IoError("mkdtemp failed for kill-restore variant");
  }
  struct DirCleanup {
    std::string dir;
    ~DirCleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{dir_template};

  // Seed-derived midpoint: every seed kills at a different offset, so
  // the suite collectively covers early, middle, and late crashes.
  const size_t n = feed.items.size();
  const size_t k = n < 2 ? n : 1 + kase.seed % (n - 1);

  store::StoreOptions store_options;
  store_options.dir = dir_template;
  KillRestoreRun run;

  // Phase 1 — the doomed process: durable appends, partial delivery,
  // one mid-run checkpoint, then oblivion (scope exit drops the
  // runtime, the store, and the log writer without any orderly Finish).
  {
    PULSE_ASSIGN_OR_RETURN(store::SegmentStore store,
                           store::SegmentStore::Open(store_options));
    HistoricalRuntime::Options options;
    options.collect_outputs = true;
    PULSE_ASSIGN_OR_RETURN(HistoricalRuntime rt,
                           HistoricalRuntime::Make(kase.spec, options));
    for (size_t i = 0; i < k; ++i) {
      const auto& [stream_idx, segment] = feed.items[i];
      const std::string& stream = kase.workloads[stream_idx].name;
      PULSE_RETURN_IF_ERROR(store.AppendSegment(stream, segment));
      PULSE_RETURN_IF_ERROR(rt.ProcessSegment(stream, segment));
    }
    std::vector<Segment> delivered = rt.TakeOutputSegments();
    for (const Segment& segment : delivered) store.NoteDelivered(segment);
    PULSE_RETURN_IF_ERROR(store.WriteCheckpoint(/*finished=*/false));
    run.segments = std::move(delivered);
  }

  // Phase 2 — the restarted process: recover from disk alone and
  // finish the feed.
  PULSE_ASSIGN_OR_RETURN(
      store::RecoveredHistorical recovered,
      store::RecoverHistorical(kase.spec, {}, store_options));
  run.verified = recovered.state_verified;
  run.detail = recovered.verify_detail;
  if (!run.verified) return run;
  for (Segment& segment : recovered.pending_outputs) {
    run.segments.push_back(std::move(segment));
  }
  for (size_t i = k; i < n; ++i) {
    const auto& [stream_idx, segment] = feed.items[i];
    const std::string& stream = kase.workloads[stream_idx].name;
    PULSE_RETURN_IF_ERROR(recovered.store.AppendSegment(stream, segment));
    PULSE_RETURN_IF_ERROR(recovered.runtime.ProcessSegment(stream, segment));
  }
  PULSE_RETURN_IF_ERROR(recovered.runtime.Finish());
  for (Segment& segment : recovered.runtime.TakeOutputSegments()) {
    run.segments.push_back(std::move(segment));
  }
  return run;
}

// Adaptive-precision variant (docs/PRECISION.md): the same feed pushed
// through an AdaptiveRuntime under a seed-derived tier schedule. The
// middle third of the feed runs widened, with the tier rotating through
// the ladder every few items — so every seed exercises widening from
// exact, tier-to-tier episode switches, and the reconcile back to tier
// 0 — while the first and last thirds pin the schedule's endpoints so
// reconciliation and Finish-time settlement always both run.
struct PrecisionRun {
  std::vector<Segment> settled;
  std::vector<ProvisionalRecord> provisionals;
  std::vector<VerdictRecord> verdicts;
  PrecisionStats stats;
};

Result<PrecisionRun> RunPulsePrecision(const GeneratedCase& kase,
                                       const SegmentFeed& feed) {
  HistoricalRuntime::Options exact;
  exact.collect_outputs = true;
  PULSE_ASSIGN_OR_RETURN(std::unique_ptr<AdaptiveRuntime> rt,
                         AdaptiveRuntime::Make(kase.spec, exact));
  const size_t ladder = rt->precision_options().ladder.size();
  const size_t n = feed.items.size();
  const size_t third = n / 3;
  PrecisionRun run;
  for (size_t i = 0; i < n; ++i) {
    size_t tier = 0;
    if (third > 0 && i >= third && i < 2 * third) {
      tier = 1 + (kase.seed + i / 4) % ladder;
    }
    PULSE_RETURN_IF_ERROR(rt->SetTier(tier));
    const auto& [stream_idx, segment] = feed.items[i];
    PULSE_RETURN_IF_ERROR(
        rt->ProcessSegment(kase.workloads[stream_idx].name, segment));
    // Interleaved harvests mirror the serving worker's per-item flush
    // and pin the emission order (provisionals strictly before their
    // verdicts).
    for (Segment& s : rt->TakeSettledOutputs()) {
      run.settled.push_back(std::move(s));
    }
    for (ProvisionalRecord& p : rt->TakeProvisionals()) {
      run.provisionals.push_back(std::move(p));
    }
    for (VerdictRecord& v : rt->TakeVerdicts()) {
      run.verdicts.push_back(v);
    }
  }
  PULSE_RETURN_IF_ERROR(rt->Finish());
  for (Segment& s : rt->TakeSettledOutputs()) {
    run.settled.push_back(std::move(s));
  }
  for (ProvisionalRecord& p : rt->TakeProvisionals()) {
    run.provisionals.push_back(std::move(p));
  }
  for (VerdictRecord& v : rt->TakeVerdicts()) {
    run.verdicts.push_back(v);
  }
  run.stats = rt->stats();
  return run;
}

// The precision variant's bookkeeping checks: emission-order lineage
// discipline and the conservation identity. Returns an empty string
// when everything holds.
std::string CheckPrecisionAccounting(const PrecisionRun& run) {
  if (run.provisionals.size() != run.stats.provisional) {
    return "provisional records (" + std::to_string(run.provisionals.size()) +
           ") != stats.provisional (" +
           std::to_string(run.stats.provisional) + ")";
  }
  if (run.stats.provisional !=
      run.stats.confirmed + run.stats.retracted) {
    return "conservation: provisional " +
           std::to_string(run.stats.provisional) + " != confirmed " +
           std::to_string(run.stats.confirmed) + " + retracted " +
           std::to_string(run.stats.retracted);
  }
  if (run.stats.open() != 0) {
    return "open provisionals after Finish: " +
           std::to_string(run.stats.open());
  }
  if (run.verdicts.size() != run.stats.confirmed + run.stats.retracted) {
    return "verdict records (" + std::to_string(run.verdicts.size()) +
           ") != confirmed + retracted";
  }
  std::set<uint64_t> emitted;
  for (const ProvisionalRecord& p : run.provisionals) {
    if (p.lineage == 0) return "provisional with lineage 0";
    if (!emitted.insert(p.lineage).second) {
      return "duplicate provisional lineage " + std::to_string(p.lineage);
    }
  }
  std::set<uint64_t> settled;
  for (const VerdictRecord& v : run.verdicts) {
    if (emitted.count(v.lineage) == 0) {
      return "verdict for unknown lineage " + std::to_string(v.lineage);
    }
    if (!settled.insert(v.lineage).second) {
      return "lineage " + std::to_string(v.lineage) + " settled twice";
    }
  }
  if (settled.size() != emitted.size()) {
    return "lineages left unsettled: " +
           std::to_string(emitted.size() - settled.size());
  }
  return "";
}

// ---------------------------------------------------------------------
// Metamorphic comparison: byte-identical modulo segment ids (the global
// id counter advances across runs).

bool SameInterval(const Interval& a, const Interval& b) {
  return a.lo == b.lo && a.hi == b.hi && a.lo_open == b.lo_open &&
         a.hi_open == b.hi_open;
}

bool SamePolynomial(const Polynomial& a, const Polynomial& b) {
  if (a.degree() != b.degree() || a.IsZero() != b.IsZero()) return false;
  for (size_t i = 0; i <= a.degree(); ++i) {
    if (a.coeff(i) != b.coeff(i)) return false;
  }
  return true;
}

std::string CompareVariant(const std::vector<Segment>& base,
                           const std::vector<Segment>& other) {
  if (base.size() != other.size()) {
    return "segment count " + std::to_string(other.size()) + " vs " +
           std::to_string(base.size());
  }
  for (size_t i = 0; i < base.size(); ++i) {
    const Segment& a = base[i];
    const Segment& b = other[i];
    if (a.key != b.key) {
      return "segment " + std::to_string(i) + ": key " +
             std::to_string(b.key) + " vs " + std::to_string(a.key);
    }
    if (!SameInterval(a.range, b.range)) {
      return "segment " + std::to_string(i) + ": range " +
             b.range.ToString() + " vs " + a.range.ToString();
    }
    if (a.attributes.size() != b.attributes.size()) {
      return "segment " + std::to_string(i) + ": attribute count differs";
    }
    for (const auto& [name, poly] : a.attributes) {
      auto it = b.attributes.find(name);
      if (it == b.attributes.end()) {
        return "segment " + std::to_string(i) + ": attribute '" + name +
               "' missing";
      }
      if (!SamePolynomial(poly, it->second)) {
        return "segment " + std::to_string(i) + ": attribute '" + name +
               "' polynomial differs";
      }
    }
    if (a.unmodeled != b.unmodeled) {
      return "segment " + std::to_string(i) + ": unmodeled differs";
    }
  }
  return "";
}

// ---------------------------------------------------------------------
// Metrics invariants: both realizations report through the same
// MetricsRegistry namespace (docs/OBSERVABILITY.md), so behavioral
// properties of the counters themselves are checkable per seed.

// Operator names that registered the common per-operator counter subset
// (op/<name>/in — the prefix every realization emits).
std::set<std::string> OpNames(const obs::MetricsSnapshot& s) {
  std::set<std::string> names;
  for (const auto& [name, value] : s.counters) {
    if (name.rfind("op/", 0) != 0) continue;
    const size_t slash = name.rfind('/');
    if (name.compare(slash, std::string::npos, "/in") == 0) {
      names.insert(name.substr(3, slash - 3));
    }
  }
  return names;
}

void CheckMetricsInvariants(const DiscreteRun& discrete,
                            const PulseRun& base, DiffReport* report,
                            Reporter* reporter) {
  if (!obs::kMetricsEnabled) return;  // registry compiled out

  // Name parity: every Pulse plan operator must be visible in the
  // discrete engine's registry under the same op/<name>/out counter and
  // op/<name>/process_ns histogram (the discrete plan may add helper
  // operators, e.g. the ".key" grouping map, so inclusion is
  // one-directional).
  const std::set<std::string> pulse_ops = OpNames(base.metrics);
  const std::set<std::string> discrete_ops = OpNames(discrete.metrics);
  ++report->metrics_checks;
  if (pulse_ops.empty()) {
    reporter->Add(Divergence{"metrics.op_names", 0.0, 0, "", 0.0, 0.0,
                             "pulse registry exposes no op/<name>/in "
                             "counters"});
  }
  for (const std::string& op : pulse_ops) {
    ++report->metrics_checks;
    if (discrete_ops.count(op) == 0) {
      reporter->Add(Divergence{"metrics.op_names", 0.0, 0, op, 0.0, 0.0,
                               "operator reported by the Pulse registry "
                               "but absent from the discrete registry"});
      continue;
    }
    for (const obs::MetricsSnapshot* snap :
         {&discrete.metrics, &base.metrics}) {
      if (snap->counters.count("op/" + op + "/out") == 0) {
        reporter->Add(Divergence{"metrics.op_names", 0.0, 0,
                                 "op/" + op + "/out", 0.0, 0.0,
                                 "common-subset counter missing"});
      }
      if (snap->histograms.count("op/" + op + "/process_ns") == 0) {
        reporter->Add(Divergence{"metrics.op_names", 0.0, 0,
                                 "op/" + op + "/process_ns", 0.0, 0.0,
                                 "common-subset histogram missing"});
      }
    }
  }
}

// ---------------------------------------------------------------------
// Pointwise matcher (filter / join / map sinks)

Status MatchPointwise(const GeneratedCase& kase, const DiscreteRun& discrete,
                      const std::vector<Segment>& pulse,
                      Reporter* reporter) {
  const std::map<Key, PulseTrack> by_key = IndexByKey(pulse);
  PULSE_ASSIGN_OR_RETURN(size_t key_idx,
                         discrete.schema->IndexOf(kase.sink.key_field));
  double vb = 0.0;
  for (const StreamWorkload& ws : kase.workloads) {
    vb = std::max(vb, ws.value_bound);
  }
  // Derived attributes (diff, dist^2-free here) stay O(2 vb).
  const double value_tol = Tol(2.0 * vb);

  // Attribute name -> discrete field index, resolved once.
  std::map<std::string, size_t> field_of;
  for (size_t i = 0; i < discrete.schema->num_fields(); ++i) {
    field_of[discrete.schema->field(i).name] = i;
  }

  // Direction A: every discrete sink tuple must lie in the Pulse
  // coverage of its key, with matching attribute values.
  const StreamWorkload& grid_ws = kase.workloads[0];
  std::map<std::pair<Key, int64_t>, size_t> discrete_present;
  for (const Tuple& tuple : discrete.output) {
    if (reporter->full()) return Status::OK();
    const Key key = tuple.at(key_idx).as_int64();
    const int64_t j = static_cast<int64_t>(
        std::llround((tuple.timestamp - grid_ws.t_begin) / kase.sample_dt));
    ++discrete_present[{key, j}];

    auto it = by_key.find(key);
    const Segment* covering =
        it == by_key.end()
            ? nullptr
            : FindCovering(it->second, tuple.timestamp, kTimeGuard);
    if (covering == nullptr) {
      reporter->Add(Divergence{
          "pointwise.uncovered", tuple.timestamp, key, "", 0.0, 0.0,
          "discrete sink tuple has no Pulse validity range (coverage "
          "distance " +
              std::to_string(it == by_key.end()
                                 ? std::numeric_limits<double>::infinity()
                                 : DistanceToCoverage(it->second.coverage,
                                                      tuple.timestamp)) +
              ")"});
      continue;
    }
    for (const auto& [name, poly] : covering->attributes) {
      auto fit = field_of.find(name);
      if (fit == field_of.end()) continue;  // not observable discretely
      const double expected = poly.Evaluate(tuple.timestamp);
      const double actual = tuple.at(fit->second).as_double();
      if (!Near(expected, actual, value_tol)) {
        reporter->Add(Divergence{"pointwise.value", tuple.timestamp, key,
                                 name, expected, actual,
                                 "model value vs discrete tuple value"});
      }
    }
  }
  for (const auto& [loc, count] : discrete_present) {
    if (count > 1) {
      reporter->Add(Divergence{
          "pointwise.duplicate",
          grid_ws.t_begin + static_cast<double>(loc.second) * kase.sample_dt,
          loc.first, "", 1.0, static_cast<double>(count),
          "duplicate discrete sink tuples for one (key, instant)"});
    }
  }

  // Direction B: every grid instant strictly inside a key's Pulse
  // coverage must have produced a discrete sink tuple.
  const std::vector<double> grid = SampleGrid(grid_ws, kase.sample_dt);
  for (const auto& [key, track] : by_key) {
    for (size_t j = 0; j < grid.size(); ++j) {
      if (reporter->full()) return Status::OK();
      if (!StrictlyInside(track.coverage, grid[j], kTimeGuard)) continue;
      auto it = discrete_present.find({key, static_cast<int64_t>(j)});
      if (it == discrete_present.end()) {
        reporter->Add(Divergence{
            "pointwise.missing", grid[j], key, "", 0.0, 0.0,
            "instant inside Pulse validity has no discrete sink tuple"});
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Aggregate-series matcher (windowed aggregate sinks, optional HAVING)

Status MatchAggregate(const GeneratedCase& kase, const DiscreteRun& discrete,
                      const std::vector<Segment>& pulse,
                      Reporter* reporter) {
  const SinkInfo& sink = kase.sink;
  const StreamWorkload& ws = kase.workloads[0];
  const std::string& attr = "x";
  const double w = sink.window_seconds;
  const double slide = sink.slide_seconds;
  const bool is_minmax =
      sink.fn == AggFn::kMin || sink.fn == AggFn::kMax;
  const std::vector<double> grid = SampleGrid(ws, kase.sample_dt);
  const double t_last = grid.back();
  const std::map<Key, PulseTrack> by_key = IndexByKey(pulse);
  const double vb = ws.value_bound;
  // Continuous sum values scale with the window length.
  const double scale = sink.fn == AggFn::kSum ? vb * w : vb;
  const double value_tol = Tol(scale);
  // HAVING comparability guard: each engine's filter input is checked
  // against that engine's own oracle, so the guard only absorbs the
  // oracle-vs-engine fp gap, not the discretization gap.
  const double having_guard = Tol(scale);

  PULSE_ASSIGN_OR_RETURN(size_t value_idx,
                         discrete.schema->IndexOf(sink.value_attribute));
  size_t group_idx = 0;
  if (sink.per_key) {
    PULSE_ASSIGN_OR_RETURN(group_idx, discrete.schema->IndexOf("group"));
  }

  std::vector<Key> groups;
  if (sink.per_key) {
    for (const KeyTrack& track : ws.tracks) groups.push_back(track.key);
  } else {
    groups.push_back(0);  // pseudo-group spanning all keys
  }

  // Index discrete output by (close index, group). Tuples past the last
  // grid time are Flush()-emitted partial windows — explained, ignored.
  std::map<std::pair<int64_t, Key>, double> discrete_at;
  for (const Tuple& tuple : discrete.output) {
    if (tuple.timestamp > t_last + kGridEps) continue;
    const int64_t k =
        static_cast<int64_t>(std::llround((tuple.timestamp - w) / slide));
    if (k < 0 || !Near(tuple.timestamp, w + static_cast<double>(k) * slide,
                       kGridEps)) {
      reporter->Add(Divergence{"aggregate.close_time", tuple.timestamp, 0,
                               sink.value_attribute, 0.0, 0.0,
                               "discrete output at a non-close timestamp"});
      continue;
    }
    const Key g =
        sink.per_key ? tuple.at(group_idx).as_int64() : Key{0};
    auto [it, inserted] =
        discrete_at.insert({{k, g}, tuple.at(value_idx).as_double()});
    if (!inserted) {
      reporter->Add(Divergence{"aggregate.duplicate", tuple.timestamp, g,
                               sink.value_attribute, 0.0, 0.0,
                               "duplicate discrete close for one group"});
    }
  }

  // Per close and group: the discrete grid oracle replays the windowed
  // accumulator bit-exactly (same samples, same update order), so the
  // discrete engine is held to exact agreement; the continuous oracle
  // integrates the ground-truth polynomials for the Pulse side.
  size_t matched_closes = 0;
  for (int64_t k = 0;; ++k) {
    const double close = w + static_cast<double>(k) * slide;
    if (close > t_last + kGridEps) break;
    for (const Key g : groups) {
      if (reporter->full()) return Status::OK();
      // Discrete oracle: replicate membership fp (c > t && c <= t + w)
      // and the (time-major, key-minor) update order of the engine.
      AggState state;
      for (const double t : grid) {
        if (!(close > t && close <= t + w)) continue;
        for (const KeyTrack& track : ws.tracks) {
          if (sink.per_key && track.key != g) continue;
          const TrackPiece* piece = track.PieceAt(t);
          if (piece == nullptr) continue;
          state.Update(piece->attrs.at(attr).Evaluate(t));
        }
      }
      auto it = discrete_at.find({k, g});
      if (state.count == 0) {
        if (it != discrete_at.end()) {
          reporter->Add(Divergence{"aggregate.unexpected", close, g,
                                   sink.value_attribute, 0.0, it->second,
                                   "discrete close for an empty window"});
        }
        continue;
      }
      const double v_d = state.Finalize(sink.fn);
      bool skip_presence = false;
      bool expected_d = true;
      if (sink.having) {
        skip_presence =
            Near(v_d, sink.having_threshold, 1e-9 * std::max(1.0, scale));
        expected_d = CmpHolds(v_d, sink.having_op, sink.having_threshold);
      }
      if (!skip_presence) {
        if (expected_d && it == discrete_at.end()) {
          reporter->Add(Divergence{"aggregate.missing", close, g,
                                   sink.value_attribute, v_d, 0.0,
                                   "discrete close missing"});
        } else if (!expected_d && it != discrete_at.end()) {
          reporter->Add(Divergence{
              "aggregate.having", close, g, sink.value_attribute, v_d,
              it->second, "discrete close present despite HAVING"});
        }
      }
      if (it != discrete_at.end() && expected_d &&
          !Near(it->second, v_d, Tol(scale))) {
        reporter->Add(Divergence{"aggregate.value", close, g,
                                 sink.value_attribute, v_d, it->second,
                                 "discrete aggregate vs grid oracle"});
      }
      ++matched_closes;

      if (is_minmax) continue;  // Pulse min/max checked in instant space

      // Pulse sum/avg: the window function at this close must equal the
      // exact integral of the ground-truth model.
      const Key track_key = sink.per_key ? g : ws.tracks[0].key;
      const Key pulse_key = sink.per_key ? g : Key{0};
      std::optional<double> integral =
          ws.Integral(track_key, attr, close - w, close);
      if (!integral.has_value()) continue;
      double v_c = *integral;
      if (sink.fn == AggFn::kAvg) v_c /= w;
      bool expected_c = true;
      bool skip_c = false;
      if (sink.having) {
        skip_c = Near(v_c, sink.having_threshold, having_guard);
        expected_c = CmpHolds(v_c, sink.having_op, sink.having_threshold);
      }
      auto pit = by_key.find(pulse_key);
      const Segment* covering =
          pit == by_key.end()
              ? nullptr
              : FindCovering(pit->second, close, kGridEps);
      if (skip_c) continue;
      if (expected_c) {
        if (covering == nullptr) {
          reporter->Add(Divergence{"aggregate.pulse_missing", close, g,
                                   sink.value_attribute, v_c, 0.0,
                                   "close not covered by Pulse window "
                                   "function output"});
          continue;
        }
        const auto poly = covering->attribute(sink.value_attribute);
        if (!poly.ok()) {
          reporter->Add(Divergence{"aggregate.pulse_attr", close, g,
                                   sink.value_attribute, v_c, 0.0,
                                   poly.status().message()});
          continue;
        }
        const double actual = poly->Evaluate(close);
        if (!Near(actual, v_c, value_tol)) {
          reporter->Add(Divergence{"aggregate.pulse_value", close, g,
                                   sink.value_attribute, v_c, actual,
                                   "window function vs exact integral"});
        }
      } else if (covering != nullptr &&
                 covering->range.Contains(close)) {
        reporter->Add(Divergence{"aggregate.pulse_having", close, g,
                                 sink.value_attribute, v_c, 0.0,
                                 "Pulse coverage despite HAVING"});
      }
    }
  }
  if (matched_closes == 0) {
    reporter->Add(Divergence{"aggregate.no_closes", 0.0, 0, "", 0.0, 0.0,
                             "no comparable window closes (workload too "
                             "short for the window?)"});
  }

  // Pulse min/max: the envelope output is instantaneous (the continuous
  // aggregate of paper Fig. 2) — validate the reconstructed envelope
  // against the ground-truth extremum at every grid instant.
  if (is_minmax) {
    const bool is_min = sink.fn == AggFn::kMin;
    for (const Key g : groups) {
      const Key pulse_key = sink.per_key ? g : Key{0};
      auto pit = by_key.find(pulse_key);
      for (const double t : grid) {
        if (reporter->full()) return Status::OK();
        std::optional<double> env =
            sink.per_key ? ws.Value(g, attr, t)
                         : ws.Envelope(attr, t, is_min);
        if (!env.has_value()) continue;
        bool expected = true;
        if (sink.having) {
          if (Near(*env, sink.having_threshold, having_guard)) continue;
          expected =
              CmpHolds(*env, sink.having_op, sink.having_threshold);
        }
        const Segment* covering =
            pit == by_key.end()
                ? nullptr
                : FindCovering(pit->second, t, kGridEps);
        if (expected) {
          if (covering == nullptr) {
            reporter->Add(Divergence{"aggregate.envelope_missing", t, g,
                                     sink.value_attribute, *env, 0.0,
                                     "instant not covered by envelope "
                                     "output"});
            continue;
          }
          const auto poly = covering->attribute(sink.value_attribute);
          if (!poly.ok()) {
            reporter->Add(Divergence{"aggregate.envelope_attr", t, g,
                                     sink.value_attribute, *env, 0.0,
                                     poly.status().message()});
            continue;
          }
          const double actual = poly->Evaluate(t);
          if (!Near(actual, *env, value_tol)) {
            reporter->Add(Divergence{"aggregate.envelope_value", t, g,
                                     sink.value_attribute, *env, actual,
                                     "envelope vs ground-truth extremum"});
          }
        } else if (covering != nullptr && covering->range.Contains(t)) {
          reporter->Add(Divergence{"aggregate.envelope_having", t, g,
                                   sink.value_attribute, *env, 0.0,
                                   "envelope coverage despite HAVING"});
        }
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Distinct-series matcher (epoch -> filter -> distinct sinks)
//
// Semantics under test: at most one event per (epoch, key), timestamped
// at the key's first qualifying instant in the epoch. The discrete side
// is held to exact agreement with a grid oracle — the engine evaluates
// the same polynomials at the same grid instants, so its first passing
// tuple per (epoch, key) is bit-predictable. The Pulse side emits the
// first validity run of the epoch; its range.lo must not trail the
// first *robustly* passing grid instant (crossings between grid points
// legitimately precede it), and must never sit where the ground-truth
// model robustly fails the predicate.

Status MatchDistinct(const GeneratedCase& kase, const DiscreteRun& discrete,
                     const std::vector<Segment>& pulse,
                     Reporter* reporter) {
  const SinkInfo& sink = kase.sink;
  const StreamWorkload& ws = kase.workloads[0];
  const double epoch_len = sink.epoch_seconds;
  const std::string& attr = sink.distinct_attribute;
  const double thr = sink.distinct_threshold;
  const CmpOp op = sink.distinct_op;
  // A grid pass is "robust" when the value clears the threshold by more
  // than the solver's value tolerance — only those force a Pulse run to
  // have opened by that instant (a marginal pass may round either way
  // in root refinement).
  const double entry_tol = Tol(ws.value_bound);
  // Value slack for probing a Pulse run boundary: solver tolerance plus
  // how far the bounded-slope signal can move across the probe offset.
  const double probe_tol =
      entry_tol + ws.derivative_bound * 2.0 * kTimeGuard;

  PULSE_ASSIGN_OR_RETURN(size_t key_idx,
                         discrete.schema->IndexOf(sink.key_field));
  PULSE_ASSIGN_OR_RETURN(size_t epoch_idx, discrete.schema->IndexOf("epoch"));

  // Ground truth per (epoch, key): the first passing grid instant (the
  // discrete witness, exact) and the first robust one (the Pulse
  // deadline).
  struct Truth {
    double first_pass = std::numeric_limits<double>::infinity();
    double first_robust = std::numeric_limits<double>::infinity();
  };
  std::map<std::pair<int64_t, Key>, Truth> truth;
  for (const double t : SampleGrid(ws, kase.sample_dt)) {
    const int64_t e = EpochIndexOf(t, epoch_len);
    for (const KeyTrack& track : ws.tracks) {
      const TrackPiece* piece = track.PieceAt(t);
      if (piece == nullptr) continue;
      const double v = piece->attrs.at(attr).Evaluate(t);
      if (!CmpHolds(v, op, thr)) continue;
      Truth& tr = truth[{e, track.key}];
      if (t < tr.first_pass) tr.first_pass = t;
      if (std::fabs(v - thr) > entry_tol && t < tr.first_robust) {
        tr.first_robust = t;
      }
    }
  }

  // Discrete events, keyed by the engine's own epoch column (which must
  // agree with the shared EpochIndexOf on the tuple's timestamp).
  std::map<std::pair<int64_t, Key>, double> discrete_events;
  for (const Tuple& tuple : discrete.output) {
    if (reporter->full()) return Status::OK();
    const Key key = tuple.at(key_idx).as_int64();
    const int64_t e = tuple.at(epoch_idx).as_int64();
    if (e != EpochIndexOf(tuple.timestamp, epoch_len)) {
      reporter->Add(Divergence{
          "distinct.epoch_column", tuple.timestamp, key, "epoch",
          static_cast<double>(EpochIndexOf(tuple.timestamp, epoch_len)),
          static_cast<double>(e),
          "epoch column disagrees with EpochIndexOf(timestamp)"});
    }
    auto [it, inserted] = discrete_events.insert({{e, key}, tuple.timestamp});
    if (!inserted) {
      reporter->Add(Divergence{
          "distinct.duplicate", tuple.timestamp, key, "", it->second,
          tuple.timestamp, "second discrete event for one (epoch, key)"});
    }
  }

  // Discrete vs oracle: exact two-way set match, first-pass timestamps.
  for (const auto& [ek, tr] : truth) {
    if (reporter->full()) return Status::OK();
    auto it = discrete_events.find(ek);
    if (it == discrete_events.end()) {
      reporter->Add(Divergence{"distinct.missing", tr.first_pass, ek.second,
                               attr, tr.first_pass, 0.0,
                               "grid oracle passes in epoch " +
                                   std::to_string(ek.first) +
                                   " but no discrete event"});
      continue;
    }
    if (!Near(it->second, tr.first_pass, kGridEps)) {
      reporter->Add(Divergence{"distinct.first_time", it->second, ek.second,
                               attr, tr.first_pass, it->second,
                               "discrete event is not the first passing "
                               "grid instant of the epoch"});
    }
  }
  for (const auto& [ek, t] : discrete_events) {
    if (reporter->full()) return Status::OK();
    if (truth.count(ek) == 0) {
      reporter->Add(Divergence{"distinct.unexpected", t, ek.second, attr,
                               0.0, t,
                               "discrete event in epoch " +
                                   std::to_string(ek.first) +
                                   " where the grid oracle never passes"});
    }
  }

  // Pulse events: one segment per (epoch, key), attributed by range
  // midpoint (strictly inside the run, hence inside its epoch).
  std::map<std::pair<int64_t, Key>, const Segment*> pulse_events;
  for (const Segment& s : pulse) {
    if (reporter->full()) return Status::OK();
    if (s.range.IsEmpty()) continue;
    const double mid = s.range.lo + 0.5 * s.range.Length();
    const int64_t e = EpochIndexOf(mid, epoch_len);
    const double e_lo = static_cast<double>(e) * epoch_len;
    const double e_hi = static_cast<double>(e + 1) * epoch_len;
    if (s.range.lo < e_lo - kTimeGuard || s.range.hi > e_hi + kTimeGuard) {
      reporter->Add(Divergence{"distinct.pulse_epoch_range", s.range.lo,
                               s.key, attr, 0.0, 0.0,
                               "output run " + s.range.ToString() +
                                   " straddles an epoch boundary"});
    }
    auto [it, inserted] = pulse_events.insert({{e, s.key}, &s});
    if (!inserted) {
      reporter->Add(Divergence{
          "distinct.pulse_duplicate", s.range.lo, s.key, "",
          it->second->range.lo, s.range.lo,
          "second Pulse event for one (epoch, key)"});
    }
    // The model must actually qualify just inside the run: probe at
    // lo + guard (capped at the midpoint) and reject robust failures.
    const double t_probe = std::min(s.range.lo + kTimeGuard, mid);
    const std::optional<double> v = ws.Value(s.key, attr, t_probe);
    if (v.has_value() && !CmpHolds(*v, op, thr) &&
        std::fabs(*v - thr) > probe_tol) {
      reporter->Add(Divergence{"distinct.pulse_spurious", s.range.lo, s.key,
                               attr, thr, *v,
                               "ground-truth model robustly fails the "
                               "predicate just inside the emitted run"});
    }
  }

  // Pulse presence/deadline: a robust grid pass forces an event whose
  // run opened by that instant.
  for (const auto& [ek, tr] : truth) {
    if (reporter->full()) return Status::OK();
    if (!std::isfinite(tr.first_robust)) continue;
    auto it = pulse_events.find(ek);
    if (it == pulse_events.end()) {
      reporter->Add(Divergence{"distinct.pulse_missing", tr.first_robust,
                               ek.second, attr, tr.first_robust, 0.0,
                               "robust grid pass in epoch " +
                                   std::to_string(ek.first) +
                                   " but no Pulse event"});
      continue;
    }
    if (it->second->range.lo > tr.first_robust + kTimeGuard) {
      reporter->Add(Divergence{
          "distinct.pulse_late", it->second->range.lo, ek.second, attr,
          tr.first_robust, it->second->range.lo,
          "Pulse first-entry instant trails the first robust grid pass"});
    }
  }
  return Status::OK();
}

}  // namespace

std::string Divergence::ToString() const {
  std::ostringstream os;
  os << check << " @t=" << time << " key=" << key;
  if (!attribute.empty()) os << " attr=" << attribute;
  os << " expected=" << expected << " actual=" << actual;
  if (!detail.empty()) os << " (" << detail << ")";
  return os.str();
}

std::string DiffReport::ToString() const {
  std::ostringstream os;
  os << "case " << description << ": " << divergence_count
     << " divergence(s), " << discrete_output_tuples
     << " discrete tuples, " << pulse_output_segments
     << " pulse segments";
  for (const Divergence& d : divergences) {
    os << "\n  " << d.ToString();
  }
  if (divergence_count > divergences.size()) {
    os << "\n  ... " << (divergence_count - divergences.size())
       << " more suppressed";
  }
  if (divergence_count > 0) {
    os << "\n  replay: RunDifferentialSeed(" << seed << ")";
  }
  return os.str();
}

Result<DiffReport> RunDifferential(const GeneratedCase& kase,
                                   const DiffOptions& options) {
  DiffReport report;
  report.seed = kase.seed;
  report.description = kase.description;
  Reporter reporter(&report, options.max_divergences);

  PULSE_ASSIGN_OR_RETURN(DiscreteRun discrete, RunDiscrete(kase));
  report.discrete_output_tuples = discrete.output.size();

  const SegmentFeed feed = MakeSegmentFeed(kase);
  PULSE_ASSIGN_OR_RETURN(PulseRun base, RunPulse(kase, feed));
  report.pulse_output_segments = base.segments.size();

  // Sharded variants: byte-identity against the unsharded base is the
  // determinism guarantee the whole scale-out design rests on
  // (docs/SHARDING.md).
  for (const size_t shards : options.shard_counts) {
    PULSE_ASSIGN_OR_RETURN(std::vector<Segment> sharded,
                           RunPulseSharded(kase, feed, shards));
    const std::string mismatch = CompareVariant(base.segments, sharded);
    if (!mismatch.empty()) {
      reporter.Add(Divergence{"metamorphic.shards" + std::to_string(shards),
                              0.0, 0, "", 0.0, 0.0, mismatch});
    }
  }

  // Forced-scalar variants: replaying with solver dispatch pinned to the
  // scalar kernels — unsharded and sharded — must reproduce the
  // SIMD-batched base run byte-identically.
  // This is the bit-for-bit determinism contract of the batched kernels.
  if (options.forced_scalar_variant) {
    struct ScopedScalarDispatch {
      ScopedScalarDispatch() {
        SetSimdOverrideForTesting(SimdLevel::kScalar);
      }
      ~ScopedScalarDispatch() { SetSimdOverrideForTesting(std::nullopt); }
    } scoped;
    PULSE_ASSIGN_OR_RETURN(PulseRun got, RunPulse(kase, feed));
    const std::string mismatch = CompareVariant(base.segments, got.segments);
    if (!mismatch.empty()) {
      reporter.Add(Divergence{"metamorphic.forced_scalar", 0.0, 0, "", 0.0,
                              0.0, mismatch});
    }
    if (!options.shard_counts.empty()) {
      PULSE_ASSIGN_OR_RETURN(
          std::vector<Segment> sharded,
          RunPulseSharded(kase, feed, options.shard_counts.front()));
      const std::string mismatch = CompareVariant(base.segments, sharded);
      if (!mismatch.empty()) {
        reporter.Add(Divergence{
            "metamorphic.forced_scalar_shards" +
                std::to_string(options.shard_counts.front()),
            0.0, 0, "", 0.0, 0.0, mismatch});
      }
    }
  }

  // Serving-transport variant: same feed, pushed through the frame
  // codec and a real session (queue, frame runs, drain). The
  // session multiplexes onto the server's shard pool, so this also
  // covers the tuple/segment routing path end to end.
  if (options.serving_variant) {
    PULSE_ASSIGN_OR_RETURN(std::vector<Segment> served,
                           RunPulseServing(kase, feed));
    const std::string mismatch = CompareVariant(base.segments, served);
    if (!mismatch.empty()) {
      reporter.Add(Divergence{"metamorphic.serving", 0.0, 0, "", 0.0, 0.0,
                              mismatch});
    }
  }

  // Adaptive-precision variant: a seed-derived tier schedule must leave
  // the settled output stream byte-identical to the static run, with
  // every provisional settled exactly once (docs/PRECISION.md).
  if (options.precision_variant) {
    PULSE_ASSIGN_OR_RETURN(PrecisionRun precise,
                           RunPulsePrecision(kase, feed));
    const std::string mismatch =
        CompareVariant(base.segments, precise.settled);
    if (!mismatch.empty()) {
      reporter.Add(Divergence{"metamorphic.precision_settled", 0.0, 0, "",
                              0.0, 0.0, mismatch});
    }
    const std::string accounting = CheckPrecisionAccounting(precise);
    if (!accounting.empty()) {
      reporter.Add(Divergence{"metamorphic.precision_accounting", 0.0, 0,
                              "", 0.0, 0.0, accounting});
    }
  }

  // Kill-and-restore variant: a crash at a seed-derived midpoint,
  // recovered purely from the durable log + checkpoint, must be
  // invisible in the output stream.
  if (options.kill_restore_variant) {
    PULSE_ASSIGN_OR_RETURN(KillRestoreRun restored,
                           RunPulseKillRestore(kase, feed));
    if (!restored.verified) {
      reporter.Add(Divergence{"metamorphic.kill_restore", 0.0, 0, "", 0.0,
                              0.0,
                              "recovery could not verify the delivered "
                              "prefix: " +
                                  restored.detail});
    } else {
      const std::string mismatch =
          CompareVariant(base.segments, restored.segments);
      if (!mismatch.empty()) {
        reporter.Add(Divergence{"metamorphic.kill_restore", 0.0, 0, "",
                                0.0, 0.0, mismatch});
      }
    }
  }

  CheckMetricsInvariants(discrete, base, &report, &reporter);

  switch (kase.sink.kind) {
    case SinkInfo::Kind::kPointwise:
      PULSE_RETURN_IF_ERROR(
          MatchPointwise(kase, discrete, base.segments, &reporter));
      break;
    case SinkInfo::Kind::kAggregateSeries:
      PULSE_RETURN_IF_ERROR(
          MatchAggregate(kase, discrete, base.segments, &reporter));
      break;
    case SinkInfo::Kind::kDistinctSeries:
      PULSE_RETURN_IF_ERROR(
          MatchDistinct(kase, discrete, base.segments, &reporter));
      break;
  }
  return report;
}

Result<DiffReport> RunDifferentialSeed(uint64_t seed,
                                       const PlanGenOptions& gen,
                                       const DiffOptions& options) {
  PULSE_ASSIGN_OR_RETURN(GeneratedCase kase, GenerateCase(seed, gen));
  return RunDifferential(kase, options);
}

}  // namespace testing
}  // namespace pulse
