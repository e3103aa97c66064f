#include "store/store.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/span.h"
#include "store/checksum.h"

namespace pulse {
namespace store {

namespace {

constexpr char kLogName[] = "segments.log";
constexpr char kCheckpointName[] = "checkpoint.bin";

std::string LogPath(const std::string& dir) { return dir + "/" + kLogName; }
std::string CheckpointPath(const std::string& dir) {
  return dir + "/" + kCheckpointName;
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IoError("create store directory '" + dir +
                         "': " + std::strerror(errno));
}

}  // namespace

std::string RecoveryReport::ToString() const {
  std::ostringstream os;
  os << "store recovery: " << log_records << " record(s), " << log_bytes
     << " byte(s)";
  if (log_missing) {
    os << ", no log (fresh directory)";
  } else {
    os << ", tail=" << LogTailStateToString(tail);
    if (!tail_detail.empty()) os << " (" << tail_detail << ")";
    if (truncated_bytes > 0) {
      os << ", truncated " << truncated_bytes << " torn byte(s)";
    }
  }
  if (!checkpoint_found) {
    os << "; checkpoint: missing (redelivering all outputs)";
  } else if (!checkpoint_error.empty()) {
    os << "; checkpoint: unreadable (" << checkpoint_error
       << "), redelivering all outputs";
  } else if (checkpoint_ahead) {
    os << "; checkpoint: ahead of log (covers " << checkpoint.log_records
       << " record(s), log holds " << log_records
       << "), watermark ignored, redelivering from consistent prefix";
  } else {
    os << "; checkpoint: covers " << checkpoint.log_records
       << " record(s), " << checkpoint.delivered_outputs
       << " output(s) delivered"
       << (checkpoint.finished ? ", finished" : "");
  }
  return os.str();
}

void SegmentStore::BindCounters() {
  c_appends_ = metrics_->GetCounter("store/appends");
  c_append_bytes_ = metrics_->GetCounter("store/append_bytes");
  c_backfills_ = metrics_->GetCounter("store/backfills");
  c_checkpoints_ = metrics_->GetCounter("store/checkpoints");
  c_delivered_ = metrics_->GetCounter("store/delivered_outputs");
  c_tree_rebuilds_ = metrics_->GetCounter("store/tree_rebuilds");
  c_tree_queries_ = metrics_->GetCounter("store/tree_queries");
}

Result<SegmentStore> SegmentStore::Open(StoreOptions options) {
  PULSE_RETURN_IF_ERROR(EnsureDir(options.dir));
  const std::string log_path = LogPath(options.dir);
  struct ::stat st;
  if (::stat(log_path.c_str(), &st) == 0 &&
      st.st_size > static_cast<off_t>(EncodeLogHeader().size())) {
    return Status::FailedPrecondition(
        "store directory '" + options.dir +
        "' holds an existing log; reopen it with SegmentStore::Recover");
  }
  SegmentStore store;
  store.options_ = std::move(options);
  PULSE_ASSIGN_OR_RETURN(store.writer_, SegmentLogWriter::Open(log_path));
  store.delivered_hash_ = kCanonicalHashSeed;
  if (store.options_.metrics != nullptr) {
    store.metrics_ = store.options_.metrics;
  } else {
    store.owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    store.metrics_ = store.owned_metrics_.get();
  }
  store.BindCounters();
  return store;
}

Status SegmentStore::AppendRecord(std::string_view framed) {
  PULSE_RETURN_IF_ERROR(writer_.Append(framed));
  if (options_.sync_each_append) {
    PULSE_RETURN_IF_ERROR(writer_.Sync());
  }
  ++log_records_;
  c_appends_->Increment();
  c_append_bytes_->Add(framed.size());
  return Status::OK();
}

namespace {

/// The model of timeline position `ref` for one attribute's tree.
SegmentTree::PolyOf TimelinePolys(const std::vector<Segment>& timeline,
                                  const std::string& attribute) {
  return [&timeline, &attribute](size_t ref) -> const Polynomial& {
    return timeline[ref].attributes.at(attribute);
  };
}

}  // namespace

SegmentStore::Series* SegmentStore::UpdateTimeline(const std::string& stream,
                                                   Segment segment,
                                                   bool* in_order) {
  if (segment.range.IsEmpty()) return nullptr;
  Series& series = series_[stream][segment.key];
  *in_order = ApplySegmentUpdate(&series.timeline, std::move(segment));
  return &series;
}

void SegmentStore::Index(const std::string& stream, Segment segment) {
  bool in_order = false;
  Series* series = UpdateTimeline(stream, std::move(segment), &in_order);
  if (series == nullptr || series->dirty) return;
  if (!in_order) {
    series->dirty = true;
    return;
  }
  const size_t ref = series->timeline.size() - 1;
  const Segment& last = series->timeline.back();
  for (const auto& [attr, poly] : last.attributes) {
    series->trees[attr].Append(
        SegmentTree::Leaf{last.range.lo, last.range.hi, ref}, poly);
  }
}

// The append paths build and encode their record before taking the
// lock that QueryRange shares; the lock covers only the buffered write,
// the counters and the indexing.

Status SegmentStore::AppendSegment(const std::string& stream,
                                   const Segment& segment) {
  obs::ScopedMetricsRegistry scoped(metrics_);
  PULSE_SPAN("store/append");
  LogRecord record;
  record.type = LogRecordType::kSegment;
  record.stream = stream;
  record.segment = segment;
  std::string framed;
  EncodeLogRecord(record, &framed);
  std::lock_guard<std::mutex> lock(*mu_);
  PULSE_RETURN_IF_ERROR(AppendRecord(framed));
  Index(stream, std::move(record.segment));
  return Status::OK();
}

Status SegmentStore::AppendTuple(const std::string& stream,
                                 const Tuple& tuple) {
  obs::ScopedMetricsRegistry scoped(metrics_);
  PULSE_SPAN("store/append");
  LogRecord record;
  record.type = LogRecordType::kTuple;
  record.stream = stream;
  record.tuple = tuple;
  std::string framed;
  EncodeLogRecord(record, &framed);
  std::lock_guard<std::mutex> lock(*mu_);
  return AppendRecord(framed);
}

Result<BackfillResult> SegmentStore::Backfill(const std::string& stream,
                                              const Segment& patch) {
  obs::ScopedMetricsRegistry scoped(metrics_);
  PULSE_SPAN("store/append");
  if (patch.range.IsEmpty()) {
    return Status::InvalidArgument("backfill patch covers no time");
  }
  LogRecord record;
  record.type = LogRecordType::kBackfill;
  record.stream = stream;
  record.segment = patch;
  std::string framed;
  EncodeLogRecord(record, &framed);
  std::lock_guard<std::mutex> lock(*mu_);
  PULSE_RETURN_IF_ERROR(AppendRecord(framed));
  Index(stream, std::move(record.segment));
  c_backfills_->Increment();
  BackfillResult result;
  result.affected = patch.range;
  result.republished = RepublishEpochs(stream, patch);
  return result;
}

std::vector<EpochAggregate> SegmentStore::RepublishEpochs(
    const std::string& stream, const Segment& patch) {
  std::vector<EpochAggregate> out;
  const double len = options_.epoch_length;
  if (len <= 0) return out;
  Series* series = FindSeries(stream, patch.key);
  if (series == nullptr) return out;
  if (series->dirty) RebuildTrees(series);
  const int64_t first = static_cast<int64_t>(std::floor(patch.range.lo / len));
  // Epochs are [e*len, (e+1)*len): a patch ending exactly on a boundary
  // does not touch the epoch starting there.
  int64_t last = static_cast<int64_t>(std::floor(patch.range.hi / len));
  if (patch.range.hi == last * len && last > first) --last;
  for (int64_t e = first; e <= last; ++e) {
    for (const auto& [attr, tree] : series->trees) {
      if (patch.attributes.find(attr) == patch.attributes.end()) continue;
      EpochAggregate epoch;
      epoch.epoch = e;
      epoch.lo = static_cast<double>(e) * len;
      epoch.hi = epoch.lo + len;
      epoch.attribute = attr;
      epoch.aggregate =
          tree.Query(epoch.lo, epoch.hi, TimelinePolys(series->timeline, attr));
      c_tree_queries_->Increment();
      out.push_back(std::move(epoch));
    }
  }
  return out;
}

Status SegmentStore::Sync() {
  std::lock_guard<std::mutex> lock(*mu_);
  return writer_.Sync();
}

void SegmentStore::NoteDelivered(const Segment& segment) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++delivered_count_;
  delivered_hash_ = CanonicalSegmentHash(segment, delivered_hash_);
  c_delivered_->Increment();
}

Status SegmentStore::WriteCheckpoint(bool finished) {
  std::lock_guard<std::mutex> lock(*mu_);
  PULSE_RETURN_IF_ERROR(writer_.Sync());
  Checkpoint ckp;
  ckp.log_records = log_records_;
  ckp.log_bytes = writer_.size_bytes();
  ckp.delivered_outputs = delivered_count_;
  ckp.output_hash = delivered_hash_;
  ckp.finished = finished;
  PULSE_RETURN_IF_ERROR(
      WriteCheckpointFile(CheckpointPath(options_.dir), ckp));
  c_checkpoints_->Increment();
  return Status::OK();
}

SegmentStore::Series* SegmentStore::FindSeries(const std::string& stream,
                                               Key key) {
  auto sit = series_.find(stream);
  if (sit == series_.end()) return nullptr;
  auto kit = sit->second.find(key);
  if (kit == sit->second.end()) return nullptr;
  return &kit->second;
}

const SegmentStore::Series* SegmentStore::FindSeries(
    const std::string& stream, Key key) const {
  auto sit = series_.find(stream);
  if (sit == series_.end()) return nullptr;
  auto kit = sit->second.find(key);
  if (kit == sit->second.end()) return nullptr;
  return &kit->second;
}

void SegmentStore::RebuildTrees(Series* series) {
  series->trees.clear();
  std::map<std::string, std::vector<SegmentTree::Leaf>> leaves;
  const std::vector<Segment>& timeline = series->timeline;
  for (size_t i = 0; i < timeline.size(); ++i) {
    for (const auto& [attr, poly] : timeline[i].attributes) {
      leaves[attr].push_back(
          SegmentTree::Leaf{timeline[i].range.lo, timeline[i].range.hi, i});
    }
  }
  for (auto& [attr, attr_leaves] : leaves) {
    series->trees[attr].Build(std::move(attr_leaves),
                              TimelinePolys(timeline, attr));
  }
  series->dirty = false;
  c_tree_rebuilds_->Increment();
}

RangeAggregate SegmentStore::QueryRange(const std::string& stream, Key key,
                                        const std::string& attribute,
                                        double lo, double hi,
                                        TreeQueryStats* stats) {
  std::lock_guard<std::mutex> lock(*mu_);
  obs::ScopedMetricsRegistry scoped(metrics_);
  PULSE_SPAN("store/tree_query");
  c_tree_queries_->Increment();
  Series* series = FindSeries(stream, key);
  if (series == nullptr) return RangeAggregate{};
  if (series->dirty) RebuildTrees(series);
  auto it = series->trees.find(attribute);
  if (it == series->trees.end()) return RangeAggregate{};
  return it->second.Query(lo, hi, TimelinePolys(series->timeline, it->first),
                          stats);
}

std::vector<Key> SegmentStore::KeysOf(const std::string& stream) const {
  std::vector<Key> keys;
  auto sit = series_.find(stream);
  if (sit == series_.end()) return keys;
  keys.reserve(sit->second.size());
  for (const auto& [key, series] : sit->second) keys.push_back(key);
  return keys;
}

const std::vector<Segment>* SegmentStore::Timeline(const std::string& stream,
                                                   Key key) const {
  const Series* series = FindSeries(stream, key);
  return series == nullptr ? nullptr : &series->timeline;
}

Result<RecoveredStore> SegmentStore::Recover(StoreOptions options) {
  PULSE_RETURN_IF_ERROR(EnsureDir(options.dir));
  RecoveredStore recovered;
  RecoveryReport& report = recovered.report;
  const std::string log_path = LogPath(options.dir);

  // 1. Scan the log and repair the torn tail.
  Result<LogScan> scanned = ScanLogFile(log_path);
  if (!scanned.ok() && scanned.status().code() == StatusCode::kNotFound) {
    report.log_missing = true;
  } else if (!scanned.ok()) {
    return scanned.status();
  } else {
    LogScan& scan = *scanned;
    report.tail = scan.tail;
    report.tail_detail = scan.detail;
    report.log_records = scan.records.size();
    report.log_bytes = scan.consistent_bytes;
    if (!scan.clean()) {
      report.truncated_bytes = scan.scanned_bytes - scan.consistent_bytes;
      PULSE_RETURN_IF_ERROR(
          TruncateFile(log_path, scan.consistent_bytes));
    }
    recovered.records = std::move(scan.records);
  }

  // 2. Reconcile the checkpoint against the consistent prefix.
  Result<Checkpoint> ckp = ReadCheckpointFile(CheckpointPath(options.dir));
  if (ckp.ok()) {
    report.checkpoint_found = true;
    report.checkpoint = *ckp;
    if (ckp->log_records > recovered.records.size()) {
      report.checkpoint_ahead = true;
    } else {
      report.effective_delivered = ckp->delivered_outputs;
    }
  } else if (ckp.status().code() != StatusCode::kNotFound) {
    report.checkpoint_found = true;
    report.checkpoint_error = ckp.status().message();
  }

  // 3. Rebuild the in-memory tiers and reopen the log for append.
  SegmentStore& store = recovered.store;
  store.options_ = std::move(options);
  PULSE_ASSIGN_OR_RETURN(store.writer_, SegmentLogWriter::Open(log_path));
  store.log_records_ = recovered.records.size();
  // Resume the delivered-output chain where the checkpoint left it so a
  // later checkpoint hashes identically to an uninterrupted run's.
  if (report.effective_delivered > 0) {
    store.delivered_count_ = report.checkpoint.delivered_outputs;
    store.delivered_hash_ = report.checkpoint.output_hash;
  } else {
    store.delivered_hash_ = kCanonicalHashSeed;
  }
  if (store.options_.metrics != nullptr) {
    store.metrics_ = store.options_.metrics;
  } else {
    store.owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    store.metrics_ = store.owned_metrics_.get();
  }
  store.BindCounters();
  {
    obs::ScopedMetricsRegistry scoped(store.metrics_);
    PULSE_SPAN("store/recover");
    // Timelines only: each series builds its trees once, on its first
    // query, and appends keep them current from there.
    for (const LogRecord& record : recovered.records) {
      if (record.type == LogRecordType::kTuple) continue;
      bool in_order = false;
      Series* series =
          store.UpdateTimeline(record.stream, record.segment, &in_order);
      if (series != nullptr) series->dirty = true;
    }
  }
  store.metrics_->GetCounter("store/recovered_records")
      ->Add(recovered.records.size());
  store.metrics_->GetCounter("store/truncated_bytes")
      ->Add(report.truncated_bytes);
  return recovered;
}

}  // namespace store
}  // namespace pulse
