#ifndef PULSE_STORE_STORE_H_
#define PULSE_STORE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "engine/tuple.h"
#include "math/interval_set.h"
#include "model/segment.h"
#include "obs/metrics.h"
#include "store/checkpoint.h"
#include "store/log.h"
#include "store/segment_tree.h"
#include "util/result.h"

namespace pulse {
namespace store {

struct StoreOptions {
  /// Directory holding `segments.log` and `checkpoint.bin`; created if
  /// missing.
  std::string dir;
  /// fsync after every append (safest; default trusts the OS page
  /// cache between explicit Sync()/WriteCheckpoint calls).
  bool sync_each_append = false;
  /// Epoch granularity for backfill republication: a patch to closed
  /// time recomputes and returns the aggregates of every epoch-aligned
  /// window it overlaps.
  double epoch_length = 10.0;
  /// Registry for store/* counters and span/store/* histograms;
  /// nullptr: privately owned, reachable via metrics().
  obs::MetricsRegistry* metrics = nullptr;
};

/// Structured outcome of a recovery scan (the "never a silent
/// divergence" contract of docs/STORAGE.md): what the tail looked
/// like, what was truncated, and how the checkpoint reconciled with
/// the log. Returned alongside the recovered store; ToString() is the
/// one-line report operators see.
struct RecoveryReport {
  /// Why the log scan stopped (kClean when it reached the end).
  LogTailState tail = LogTailState::kClean;
  std::string tail_detail;
  /// True when no log file existed (fresh directory).
  bool log_missing = false;
  uint64_t log_records = 0;
  uint64_t log_bytes = 0;
  /// Torn-tail bytes removed to restore the consistent prefix.
  uint64_t truncated_bytes = 0;
  bool checkpoint_found = false;
  /// Checkpoint present but unreadable (corrupt/truncated); its error.
  std::string checkpoint_error;
  /// Checkpoint claims more records than the consistent log prefix
  /// holds (checkpoint newer than log). The delivered watermark is
  /// ignored: recovery redelivers from the consistent prefix.
  bool checkpoint_ahead = false;
  /// The decoded checkpoint (zero-valued unless checkpoint_found and
  /// readable).
  Checkpoint checkpoint;
  /// Delivered-output watermark recovery honors (0 when the checkpoint
  /// is missing, unreadable, or ahead of the log).
  uint64_t effective_delivered = 0;

  bool clean() const {
    return tail == LogTailState::kClean && !checkpoint_ahead &&
           checkpoint_error.empty();
  }
  std::string ToString() const;
};

struct RecoveredStore;

/// One epoch's recomputed aggregate after a backfill patch.
struct EpochAggregate {
  int64_t epoch = 0;
  double lo = 0.0;
  double hi = 0.0;
  std::string attribute;
  RangeAggregate aggregate;
};

struct BackfillResult {
  /// Time the patch rewrote.
  Interval affected;
  /// Recomputed aggregates for every epoch window the patch touched,
  /// per modeled attribute — the republication set.
  std::vector<EpochAggregate> republished;
};

/// The tiered segment store (docs/STORAGE.md): tier 1 is the durable
/// append-only log (system of record), tier 2 the in-memory per-key
/// timelines with pre-aggregated segment trees serving historical
/// range aggregates in O(log n). Checkpoints record the
/// delivered-output watermark so recovery can suppress replayed
/// outputs a client already saw. Appends and queries are
/// mutex-serialized: multiple serving sessions share one store.
class SegmentStore {
 public:
  static Result<SegmentStore> Open(StoreOptions options);

  SegmentStore(SegmentStore&&) = default;
  SegmentStore& operator=(SegmentStore&&) = default;

  /// Durably appends an admitted input segment and indexes it into the
  /// key timeline (paper update semantics: overlap truncates
  /// predecessors).
  Status AppendSegment(const std::string& stream, const Segment& segment);

  /// Durably appends a raw input tuple (replayed through segmentation
  /// on recovery; tuples do not enter the segment trees).
  Status AppendTuple(const std::string& stream, const Tuple& tuple);

  /// Late-arriving correction: durably logs the patch, applies it to
  /// the closed timeline, and returns the recomputed aggregates of
  /// every affected epoch window for republication.
  Result<BackfillResult> Backfill(const std::string& stream,
                                  const Segment& patch);

  /// Flushes and fsyncs the log.
  Status Sync();

  /// Notes one output segment delivered downstream (advances the
  /// checkpoint watermark: count + canonical hash, ids excluded).
  void NoteDelivered(const Segment& segment);

  /// Syncs the log, then atomically replaces the checkpoint with the
  /// current log/delivery watermark. `finished` marks a drain point
  /// (all inputs flushed through Finish(), outputs final).
  Status WriteCheckpoint(bool finished);

  /// Historical range aggregate over [lo, hi] for one series, served
  /// from the pre-aggregated tree (O(log n) node payloads plus at most
  /// two exact edge-leaf recomputations).
  RangeAggregate QueryRange(const std::string& stream, Key key,
                            const std::string& attribute, double lo,
                            double hi, TreeQueryStats* stats = nullptr);

  /// Keys with modeled history on `stream`, ascending.
  std::vector<Key> KeysOf(const std::string& stream) const;
  /// The ordered per-key timeline (nullptr when the series is empty).
  const std::vector<Segment>* Timeline(const std::string& stream,
                                       Key key) const;

  uint64_t log_records() const { return log_records_; }
  uint64_t log_bytes() const { return writer_.size_bytes(); }
  uint64_t delivered_outputs() const { return delivered_count_; }
  uint64_t delivered_hash() const { return delivered_hash_; }
  const std::string& dir() const { return options_.dir; }
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Reopens a store directory: scans the log, truncates any torn
  /// tail, reconciles the checkpoint, rebuilds the timelines (each
  /// series builds its trees on its first query), and reopens the log
  /// for append at the consistent prefix. Always
  /// structured: corruption surfaces in the report, never as a crash.
  static Result<RecoveredStore> Recover(StoreOptions options);

 private:
  friend struct RecoveredStore;

  SegmentStore() = default;

  struct Series {
    std::vector<Segment> timeline;
    /// Trees per attribute over the timeline. An in-order segment
    /// appends one leaf to each tree it models (amortized O(log n));
    /// a segment that rewrites the timeline (truncating overlap or
    /// backfill) marks the series dirty, and the next query rebuilds
    /// every tree once. Leaves reference timeline positions.
    std::map<std::string, SegmentTree> trees;
    bool dirty = false;
  };

  /// Writes one framed record (encoded before the caller took the
  /// lock) and counts it.
  Status AppendRecord(std::string_view framed);
  /// Applies a segment/backfill record to its key's timeline. Returns
  /// the series, or nullptr for a segment covering no time (logged, but
  /// no modeled history); `in_order` reports ApplySegmentUpdate's fast
  /// path.
  Series* UpdateTimeline(const std::string& stream, Segment segment,
                         bool* in_order);
  /// UpdateTimeline, then keeps the series' trees current: appends the
  /// leaves of an in-order segment, marks the series dirty otherwise.
  void Index(const std::string& stream, Segment segment);
  std::vector<EpochAggregate> RepublishEpochs(const std::string& stream,
                                              const Segment& patch);

  Series* FindSeries(const std::string& stream, Key key);
  const Series* FindSeries(const std::string& stream, Key key) const;
  void RebuildTrees(Series* series);

  StoreOptions options_;
  SegmentLogWriter writer_;
  uint64_t log_records_ = 0;
  uint64_t delivered_count_ = 0;
  uint64_t delivered_hash_ = 0;  // kCanonicalHashSeed at rest
  std::map<std::string, std::map<Key, Series>> series_;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<std::mutex> mu_{std::make_unique<std::mutex>()};

  obs::Counter* c_appends_ = nullptr;
  obs::Counter* c_append_bytes_ = nullptr;
  obs::Counter* c_backfills_ = nullptr;
  obs::Counter* c_checkpoints_ = nullptr;
  obs::Counter* c_delivered_ = nullptr;
  obs::Counter* c_tree_rebuilds_ = nullptr;
  obs::Counter* c_tree_queries_ = nullptr;

  void BindCounters();
};

struct RecoveredStore {
  SegmentStore store;
  /// The consistent log prefix, in append order — the replay feed for
  /// rebuilding runtime state (store/recovery.h).
  std::vector<LogRecord> records;
  RecoveryReport report;
};

}  // namespace store
}  // namespace pulse

#endif  // PULSE_STORE_STORE_H_
