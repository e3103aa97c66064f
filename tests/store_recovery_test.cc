// Fault-injection tests for the tiered segment store (docs/STORAGE.md):
// every corruption scenario — torn final record, truncated log,
// bit-flipped checksum, missing checkpoint, checkpoint newer than the
// log — must recover to the last consistent prefix with a structured
// report, never a crash or a silent divergence. The kill-and-restore
// tests prove recovered runtime state answers byte-identically to an
// uninterrupted run.
#include "store/recovery.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "store/checkpoint.h"
#include "store/checksum.h"
#include "store/log.h"
#include "store/store.h"
#include "testing/plan_gen.h"
#include "util/rng.h"

namespace pulse {
namespace store {
namespace {

class StoreRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string templ =
        (std::filesystem::temp_directory_path() / "pulse_store_test_XXXXXX")
            .string();
    ASSERT_NE(mkdtemp(templ.data()), nullptr);
    dir_ = templ;
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string LogPath() const { return dir_ + "/segments.log"; }
  std::string CheckpointPath() const { return dir_ + "/checkpoint.bin"; }

  std::string ReadFile(const std::string& path) const {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  void WriteFile(const std::string& path, const std::string& bytes) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
};

Segment MakeSeg(Key key, double lo, double hi, double a0, double a1) {
  Segment s(key, Interval::ClosedOpen(lo, hi));
  s.attributes["x"] = Polynomial({a0, a1});
  return s;
}

// Appends `count` segments on stream "s" and returns their encoded
// record images (byte-identical to what the writer persisted, so tests
// can compute exact corruption offsets).
std::vector<std::string> AppendSegments(SegmentStore* store, int count) {
  std::vector<std::string> images;
  for (int i = 0; i < count; ++i) {
    Segment seg = MakeSeg(7, i, i + 1.0, i * 1.0, 0.5);
    EXPECT_TRUE(store->AppendSegment("s", seg).ok());
    LogRecord record;
    record.type = LogRecordType::kSegment;
    record.stream = "s";
    record.segment = seg;
    std::string image;
    EncodeLogRecord(record, &image);
    images.push_back(std::move(image));
  }
  return images;
}

TEST_F(StoreRecoveryTest, WriterRoundTrip) {
  {
    Result<SegmentStore> store = SegmentStore::Open({.dir = dir_});
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    AppendSegments(&*store, 3);
    Tuple t(1.5, {Value(int64_t{7}), Value(2.5)});
    ASSERT_TRUE(store->AppendTuple("s", t).ok());
    ASSERT_TRUE(store->Sync().ok());
    EXPECT_EQ(store->log_records(), 4u);
  }
  Result<LogScan> scan = ScanLogFile(LogPath());
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->clean());
  ASSERT_EQ(scan->records.size(), 4u);
  EXPECT_EQ(scan->records[0].type, LogRecordType::kSegment);
  EXPECT_EQ(scan->records[3].type, LogRecordType::kTuple);
  EXPECT_EQ(scan->records[3].tuple.timestamp, 1.5);
  for (const LogRecord& r : scan->records) EXPECT_EQ(r.stream, "s");
}

TEST_F(StoreRecoveryTest, CheckpointRoundTripAndAtomicReplace) {
  Checkpoint ckp;
  ckp.log_records = 42;
  ckp.log_bytes = 4242;
  ckp.delivered_outputs = 7;
  ckp.output_hash = 0xdeadbeefcafef00dull;
  ckp.finished = true;
  ASSERT_TRUE(WriteCheckpointFile(CheckpointPath(), ckp).ok());
  Result<Checkpoint> got = ReadCheckpointFile(CheckpointPath());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->log_records, 42u);
  EXPECT_EQ(got->delivered_outputs, 7u);
  EXPECT_EQ(got->output_hash, ckp.output_hash);
  EXPECT_TRUE(got->finished);
  // Replacing leaves no .tmp behind and reads back the new image.
  ckp.log_records = 43;
  ckp.finished = false;
  ASSERT_TRUE(WriteCheckpointFile(CheckpointPath(), ckp).ok());
  EXPECT_FALSE(std::filesystem::exists(CheckpointPath() + ".tmp"));
  got = ReadCheckpointFile(CheckpointPath());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->log_records, 43u);
  EXPECT_FALSE(got->finished);
}

TEST_F(StoreRecoveryTest, ReadMissingCheckpointIsNotFound) {
  Result<Checkpoint> got = ReadCheckpointFile(CheckpointPath());
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST_F(StoreRecoveryTest, OpenRefusesDirectoryWithExistingLog) {
  {
    Result<SegmentStore> store = SegmentStore::Open({.dir = dir_});
    ASSERT_TRUE(store.ok());
    AppendSegments(&*store, 1);
    ASSERT_TRUE(store->Sync().ok());
  }
  Result<SegmentStore> again = SegmentStore::Open({.dir = dir_});
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(StoreRecoveryTest, RecoverFreshDirectory) {
  Result<RecoveredStore> recovered = SegmentStore::Recover({.dir = dir_});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->report.log_missing);
  EXPECT_FALSE(recovered->report.checkpoint_found);
  EXPECT_TRUE(recovered->records.empty());
  // The recovered store is immediately usable.
  AppendSegments(&recovered->store, 2);
  EXPECT_EQ(recovered->store.log_records(), 2u);
}

// Scenario 1: the process died mid-append — the final record is torn.
TEST_F(StoreRecoveryTest, TornFinalRecordIsTruncated) {
  {
    Result<SegmentStore> store = SegmentStore::Open({.dir = dir_});
    ASSERT_TRUE(store.ok());
    AppendSegments(&*store, 3);
    ASSERT_TRUE(store->Sync().ok());
  }
  const std::string intact = ReadFile(LogPath());
  // A torn append: frame + half the payload of a fourth record.
  LogRecord extra;
  extra.type = LogRecordType::kSegment;
  extra.stream = "s";
  extra.segment = MakeSeg(7, 3.0, 4.0, 1.0, 0.5);
  std::string image;
  EncodeLogRecord(extra, &image);
  WriteFile(LogPath(), intact + image.substr(0, image.size() / 2));

  Result<RecoveredStore> recovered = SegmentStore::Recover({.dir = dir_});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->report.tail, LogTailState::kTornRecord);
  EXPECT_EQ(recovered->records.size(), 3u);
  EXPECT_GT(recovered->report.truncated_bytes, 0u);
  EXPECT_FALSE(recovered->report.clean());
  // The file was repaired to the consistent prefix...
  EXPECT_EQ(std::filesystem::file_size(LogPath()), intact.size());
  // ...and appending resumes cleanly from there.
  AppendSegments(&recovered->store, 1);
  ASSERT_TRUE(recovered->store.Sync().ok());
  Result<LogScan> rescan = ScanLogFile(LogPath());
  ASSERT_TRUE(rescan.ok());
  EXPECT_TRUE(rescan->clean());
  EXPECT_EQ(rescan->records.size(), 4u);
}

// Scenario 2: the log lost records the checkpoint already covered
// (e.g. the log device rolled back further than the checkpoint).
TEST_F(StoreRecoveryTest, CheckpointNewerThanLogIsFlagged) {
  std::vector<std::string> images;
  {
    Result<SegmentStore> store = SegmentStore::Open({.dir = dir_});
    ASSERT_TRUE(store.ok());
    images = AppendSegments(&*store, 4);
    store->NoteDelivered(MakeSeg(7, 0.0, 1.0, 0.0, 0.5));
    ASSERT_TRUE(store->WriteCheckpoint(false).ok());
  }
  // Drop the last two records: the log is now behind the checkpoint.
  const std::string full = ReadFile(LogPath());
  const size_t keep = EncodeLogHeader().size() + images[0].size() +
                      images[1].size();
  WriteFile(LogPath(), full.substr(0, keep));

  Result<RecoveredStore> recovered = SegmentStore::Recover({.dir = dir_});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->report.checkpoint_found);
  EXPECT_TRUE(recovered->report.checkpoint_ahead);
  EXPECT_FALSE(recovered->report.clean());
  // The delivered watermark is ignored: everything will be redelivered.
  EXPECT_EQ(recovered->report.effective_delivered, 0u);
  EXPECT_EQ(recovered->records.size(), 2u);
  EXPECT_NE(recovered->report.ToString().find("ahead of log"),
            std::string::npos);
}

// Scenario 3: a bit flip in the middle of the log.
TEST_F(StoreRecoveryTest, BitFlippedChecksumStopsAtLastConsistentRecord) {
  std::vector<std::string> images;
  {
    Result<SegmentStore> store = SegmentStore::Open({.dir = dir_});
    ASSERT_TRUE(store.ok());
    images = AppendSegments(&*store, 4);
    ASSERT_TRUE(store->Sync().ok());
  }
  std::string bytes = ReadFile(LogPath());
  // Flip one payload bit inside record 1 (0-based): everything from
  // that record on is unusable, record 0 survives.
  const size_t offset =
      EncodeLogHeader().size() + images[0].size() + 8 + images[1].size() / 3;
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
  WriteFile(LogPath(), bytes);

  Result<RecoveredStore> recovered = SegmentStore::Recover({.dir = dir_});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->report.tail, LogTailState::kBadChecksum);
  EXPECT_EQ(recovered->records.size(), 1u);
  EXPECT_EQ(recovered->report.truncated_bytes,
            images[1].size() + images[2].size() + images[3].size());
  Result<LogScan> rescan = ScanLogFile(LogPath());
  ASSERT_TRUE(rescan.ok());
  EXPECT_TRUE(rescan->clean());
  EXPECT_EQ(rescan->records.size(), 1u);
}

// Scenario 4: no checkpoint at all — replay everything, deliver
// everything.
TEST_F(StoreRecoveryTest, MissingCheckpointRedeliversAll) {
  {
    Result<SegmentStore> store = SegmentStore::Open({.dir = dir_});
    ASSERT_TRUE(store.ok());
    AppendSegments(&*store, 3);
    ASSERT_TRUE(store->Sync().ok());
  }
  Result<RecoveredStore> recovered = SegmentStore::Recover({.dir = dir_});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->report.checkpoint_found);
  EXPECT_EQ(recovered->report.effective_delivered, 0u);
  EXPECT_EQ(recovered->records.size(), 3u);
  EXPECT_NE(recovered->report.ToString().find("checkpoint: missing"),
            std::string::npos);
}

// Scenario 5: checkpoint present but corrupt.
TEST_F(StoreRecoveryTest, CorruptCheckpointIsReportedNotTrusted) {
  {
    Result<SegmentStore> store = SegmentStore::Open({.dir = dir_});
    ASSERT_TRUE(store.ok());
    AppendSegments(&*store, 2);
    store->NoteDelivered(MakeSeg(7, 0.0, 1.0, 0.0, 0.5));
    ASSERT_TRUE(store->WriteCheckpoint(false).ok());
  }
  std::string bytes = ReadFile(CheckpointPath());
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x01);
  WriteFile(CheckpointPath(), bytes);

  Result<RecoveredStore> recovered = SegmentStore::Recover({.dir = dir_});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->report.checkpoint_found);
  EXPECT_FALSE(recovered->report.checkpoint_error.empty());
  EXPECT_EQ(recovered->report.effective_delivered, 0u);
  EXPECT_FALSE(recovered->report.clean());
  EXPECT_NE(recovered->report.ToString().find("unreadable"),
            std::string::npos);
}

TEST_F(StoreRecoveryTest, RecoveredStoreRebuildsTimelinesAndTrees) {
  {
    Result<SegmentStore> store = SegmentStore::Open({.dir = dir_});
    ASSERT_TRUE(store.ok());
    AppendSegments(&*store, 5);
    ASSERT_TRUE(store->Sync().ok());
  }
  Result<RecoveredStore> recovered = SegmentStore::Recover({.dir = dir_});
  ASSERT_TRUE(recovered.ok());
  SegmentStore& store = recovered->store;
  ASSERT_EQ(store.KeysOf("s"), std::vector<Key>{7});
  const std::vector<Segment>* timeline = store.Timeline("s", 7);
  ASSERT_NE(timeline, nullptr);
  EXPECT_EQ(timeline->size(), 5u);
  // x(t) = i + 0.5 (t - i) on [i, i+1): integral over [0, 5) is exact.
  RangeAggregate agg = store.QueryRange("s", 7, "x", 0.0, 5.0);
  EXPECT_EQ(agg.count, 5u);
  EXPECT_NEAR(agg.coverage, 5.0, 1e-12);
  double expected_integral = 0.0;
  for (int i = 0; i < 5; ++i) {
    // ∫_i^{i+1} (i + 0.5 t) dt — AppendSegments builds a0 = i, a1 = 0.5.
    expected_integral += i + 0.5 * (i + 0.5);
  }
  EXPECT_NEAR(agg.integral, expected_integral, 1e-9);
}

TEST_F(StoreRecoveryTest, BackfillPatchesClosedEpochAndRepublishes) {
  Result<SegmentStore> store =
      SegmentStore::Open({.dir = dir_, .epoch_length = 1.0});
  ASSERT_TRUE(store.ok());
  AppendSegments(&*store, 4);  // [0,1) [1,2) [2,3) [3,4)
  RangeAggregate before = store->QueryRange("s", 7, "x", 1.0, 2.0);
  // A late correction rewrites [1.25, 1.75) to the constant 100.
  Segment patch = MakeSeg(7, 1.25, 1.75, 100.0, 0.0);
  Result<BackfillResult> result = store->Backfill("s", patch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->affected.lo, 1.25);
  // Only epoch [1, 2) is affected at epoch_length 1.0.
  ASSERT_EQ(result->republished.size(), 1u);
  EXPECT_EQ(result->republished[0].epoch, 1);
  EXPECT_EQ(result->republished[0].attribute, "x");
  const RangeAggregate& after = result->republished[0].aggregate;
  EXPECT_GT(after.max, before.max);
  EXPECT_NEAR(after.max, 100.0, 1e-12);
  // The patched epoch's integral reflects the rewrite exactly:
  // old ∫ over [1.25, 1.75) was ∫ (1 + 0.5 t) dt, new is 100 * 0.5.
  const double old_piece = 0.5 * 1.0 + 0.5 * (1.75 * 1.75 - 1.25 * 1.25) / 2;
  EXPECT_NEAR(after.integral, before.integral - old_piece + 50.0, 1e-9);
  // The patch survives recovery: it is in the log as a kBackfill record.
  ASSERT_TRUE(store->Sync().ok());
  Result<LogScan> scan = ScanLogFile(LogPath());
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 5u);
  EXPECT_EQ(scan->records[4].type, LogRecordType::kBackfill);
}

// ---------------------------------------------------------------------
// Tree maintenance: answers equal a linear scan of the timeline, and a
// tree is rebuilt only after a segment rewrote its timeline.

constexpr double kRelTol = 1e-9;

// The no-index answer: every timeline segment modeling `attribute`,
// clipped to [lo, hi] with the tree's closed-range convention.
RangeAggregate ScanTimeline(const SegmentStore& store,
                            const std::string& stream, Key key,
                            const std::string& attribute, double lo,
                            double hi) {
  RangeAggregate out;
  const std::vector<Segment>* timeline = store.Timeline(stream, key);
  if (timeline == nullptr) return out;
  for (const Segment& seg : *timeline) {
    if (seg.range.hi <= lo) continue;
    if (seg.range.lo > hi) break;
    auto it = seg.attributes.find(attribute);
    if (it == seg.attributes.end()) continue;
    out.Combine(AggregatePolynomial(it->second, std::max(seg.range.lo, lo),
                                    std::min(seg.range.hi, hi)));
  }
  return out;
}

// count, min, max and the time bounds bitwise; the summed fields within
// kRelTol relative (the tree groups the additions differently).
void ExpectMatchesScan(const RangeAggregate& want, const RangeAggregate& got,
                       const std::string& context) {
  ASSERT_EQ(want.count, got.count) << context;
  if (want.count == 0) return;
  EXPECT_EQ(want.min, got.min) << context;
  EXPECT_EQ(want.max, got.max) << context;
  EXPECT_EQ(want.t_lo, got.t_lo) << context;
  EXPECT_EQ(want.t_hi, got.t_hi) << context;
  for (const auto& [w, g] : {std::pair{want.coverage, got.coverage},
                             {want.integral, got.integral},
                             {want.sum, got.sum}}) {
    EXPECT_NEAR(w, g, kRelTol * std::max(1.0, std::fabs(w))) << context;
  }
}

uint64_t TreeRebuilds(const SegmentStore& store) {
  return store.metrics()->GetCounter("store/tree_rebuilds")->value();
}

TEST_F(StoreRecoveryTest, InOrderAppendsNeverRebuildTrees) {
  Result<SegmentStore> store = SegmentStore::Open({.dir = dir_});
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(store->AppendSegment("s", MakeSeg(7, i, i + 1.0, i, -0.5))
                    .ok());
    if (i % 16 == 15) {
      const double lo = i / 3.0;
      const double hi = i + 0.5;
      ExpectMatchesScan(ScanTimeline(*store, "s", 7, "x", lo, hi),
                        store->QueryRange("s", 7, "x", lo, hi),
                        "after append " + std::to_string(i));
    }
  }
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(TreeRebuilds(*store), 0u);
  }
}

TEST_F(StoreRecoveryTest, RecoveredSeriesBuildsTreesOnceThenAppends) {
  {
    Result<SegmentStore> store = SegmentStore::Open({.dir = dir_});
    ASSERT_TRUE(store.ok());
    AppendSegments(&*store, 32);
    ASSERT_TRUE(store->Sync().ok());
  }
  Result<RecoveredStore> recovered = SegmentStore::Recover({.dir = dir_});
  ASSERT_TRUE(recovered.ok());
  SegmentStore& store = recovered->store;
  // Recovery indexes timelines only: no tree exists before a query.
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(TreeRebuilds(store), 0u);
  }
  for (int k = 0; k < 4; ++k) {
    ExpectMatchesScan(ScanTimeline(store, "s", 7, "x", k, k + 10.5),
                      store.QueryRange("s", 7, "x", k, k + 10.5),
                      "recovered query " + std::to_string(k));
  }
  for (int i = 32; i < 48; ++i) {
    ASSERT_TRUE(store.AppendSegment("s", MakeSeg(7, i, i + 1.0, i, 0.5)).ok());
  }
  ExpectMatchesScan(ScanTimeline(store, "s", 7, "x", 0.0, 48.0),
                    store.QueryRange("s", 7, "x", 0.0, 48.0),
                    "after appends");
  // One Build on the first query; the appends kept the tree current.
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(TreeRebuilds(store), 1u);
  }
}

TEST_F(StoreRecoveryTest, EmptyRangeSegmentCreatesNoSeries) {
  {
    Result<SegmentStore> store = SegmentStore::Open({.dir = dir_});
    ASSERT_TRUE(store.ok());
    Segment empty(7, Interval::ClosedOpen(3.0, 3.0));
    empty.attributes["x"] = Polynomial({1.0});
    ASSERT_TRUE(store->AppendSegment("s", empty).ok());
    // Logged as received, but no modeled history.
    EXPECT_EQ(store->log_records(), 1u);
    EXPECT_TRUE(store->KeysOf("s").empty());
    EXPECT_EQ(store->Timeline("s", 7), nullptr);
    EXPECT_TRUE(store->QueryRange("s", 7, "x", 0.0, 10.0).empty());
    ASSERT_TRUE(store->Sync().ok());
  }
  Result<RecoveredStore> recovered = SegmentStore::Recover({.dir = dir_});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->store.log_records(), 1u);
  EXPECT_TRUE(recovered->store.KeysOf("s").empty());
  EXPECT_EQ(recovered->store.Timeline("s", 7), nullptr);
}

// Randomized interleavings of in-order appends, truncating overlaps,
// backfills and queries on 3 keys and 2 attributes (some segments model
// one attribute only). Every answer, the backfills' republished epochs
// included, must equal the timeline scan, and the trees must be rebuilt
// exactly once per dirtying event that a query followed.
TEST_F(StoreRecoveryTest, RandomizedSequenceMatchesTimelineScan) {
  const std::vector<std::string> attrs = {"x", "y"};
  uint64_t dirtying_events = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    const std::string dir = dir_ + "/seed" + std::to_string(seed);
    Result<SegmentStore> opened =
        SegmentStore::Open({.dir = dir, .epoch_length = 4.0});
    ASSERT_TRUE(opened.ok());
    SegmentStore& store = *opened;
    Rng rng(seed + 1);
    bool dirty[3] = {false, false, false};
    uint64_t expected_rebuilds = 0;
    const auto note_query = [&](Key key) {
      if (dirty[key]) ++expected_rebuilds;
      dirty[key] = false;
    };
    for (int op = 0; op < 120; ++op) {
      const Key key = static_cast<Key>(rng.UniformInt(0, 2));
      const std::vector<Segment>* timeline = store.Timeline("s", key);
      const double last_hi =
          timeline == nullptr ? 0.0 : timeline->back().range.hi;
      const std::string context = "seed " + std::to_string(seed) + " op " +
                                  std::to_string(op);
      const int64_t kind = rng.UniformInt(0, 99);
      if (kind < 65) {
        // A new segment: in order (at or past the end) or a truncating
        // overlap of the latest stretch.
        const bool overlap = timeline != nullptr && kind >= 45;
        double lo = last_hi;
        if (overlap) {
          lo = rng.Uniform(std::max(timeline->front().range.lo, last_hi - 3.0),
                           last_hi);
        } else if (rng.UniformInt(0, 1) == 1) {
          lo += rng.Uniform(0.0, 1.0);
        }
        Segment seg(key, Interval::ClosedOpen(lo, lo + rng.Uniform(0.1, 2.0)));
        const int64_t which = rng.UniformInt(0, 4);  // 0: x only, 1: y only
        if (which != 1) {
          seg.attributes["x"] = Polynomial(
              {rng.Uniform(-5.0, 5.0), rng.Uniform(-1.0, 1.0),
               rng.Uniform(-0.5, 0.5)});
        }
        if (which != 0) {
          seg.attributes["y"] =
              Polynomial({rng.Uniform(-5.0, 5.0), rng.Uniform(-1.0, 1.0)});
        }
        ASSERT_TRUE(store.AppendSegment("s", seg).ok()) << context;
        if (overlap) {
          dirty[key] = true;
          ++dirtying_events;
        }
      } else if (kind < 75 && timeline != nullptr) {
        // A backfill patching closed time; its republication queries
        // the series right away.
        const double lo = rng.Uniform(timeline->front().range.lo, last_hi);
        Segment patch(key,
                      Interval::ClosedOpen(lo, lo + rng.Uniform(0.1, 1.0)));
        patch.attributes[attrs[rng.UniformInt(0, 1)]] =
            Polynomial({rng.Uniform(-5.0, 5.0), rng.Uniform(-1.0, 1.0)});
        Result<BackfillResult> result = store.Backfill("s", patch);
        ASSERT_TRUE(result.ok()) << context;
        dirty[key] = true;
        ++dirtying_events;
        note_query(key);
        for (const EpochAggregate& epoch : result->republished) {
          ExpectMatchesScan(ScanTimeline(store, "s", key, epoch.attribute,
                                         epoch.lo, epoch.hi),
                            epoch.aggregate, context + " republished");
        }
      } else {
        const std::string& attr = attrs[rng.UniformInt(0, 1)];
        double lo = rng.Uniform(-1.0, last_hi + 1.0);
        double hi = rng.Uniform(-1.0, last_hi + 1.0);
        if (hi < lo) std::swap(lo, hi);
        const RangeAggregate got = store.QueryRange("s", key, attr, lo, hi);
        if (timeline != nullptr) note_query(key);
        ExpectMatchesScan(ScanTimeline(store, "s", key, attr, lo, hi), got,
                          context + " query");
      }
    }
    if (obs::kMetricsEnabled) {
      EXPECT_EQ(TreeRebuilds(store), expected_rebuilds) << "seed " << seed;
    }
  }
  EXPECT_GT(dirtying_events, 1000u);
}

// One thread appends in-order segments while another queries closed
// history; after the join every sampled answer equals the scan.
TEST_F(StoreRecoveryTest, ConcurrentAppendsAndQueriesMatchScan) {
  constexpr size_t kSegments = 10000;
  constexpr size_t kSampled = 2000;
  Result<SegmentStore> opened = SegmentStore::Open({.dir = dir_});
  ASSERT_TRUE(opened.ok());
  SegmentStore& store = *opened;
  // Segment i covers [i, i + 1) on key i % 3, so a range ending before
  // time n touches only the first n segments.
  std::atomic<size_t> appended{0};
  std::thread writer([&] {
    for (size_t i = 0; i < kSegments; ++i) {
      const double t = static_cast<double>(i);
      const Key key = static_cast<Key>(i % 3);
      EXPECT_TRUE(
          store.AppendSegment("s", MakeSeg(key, t, t + 1.0, t, -0.25)).ok());
      appended.store(i + 1, std::memory_order_release);
    }
  });
  struct Sample {
    Key key;
    double lo, hi;
    RangeAggregate answer;
  };
  std::vector<Sample> samples;
  Rng rng(5);
  size_t queries = 0;
  while (appended.load(std::memory_order_acquire) < kSegments) {
    const size_t n = appended.load(std::memory_order_acquire);
    if (n == 0) continue;
    const double closed = std::nextafter(static_cast<double>(n), 0.0);
    const Key key = static_cast<Key>(rng.UniformInt(0, 2));
    const double lo = rng.Uniform(0.0, closed);
    const double hi = std::min(closed, lo + rng.Uniform(0.0, 300.0));
    const RangeAggregate answer = store.QueryRange("s", key, "x", lo, hi);
    ++queries;
    if (samples.size() < kSampled) samples.push_back({key, lo, hi, answer});
  }
  writer.join();
  EXPECT_GT(queries, 0u);
  for (const Sample& q : samples) {
    ExpectMatchesScan(ScanTimeline(store, "s", q.key, "x", q.lo, q.hi),
                      q.answer,
                      "key " + std::to_string(q.key) + " [" +
                          std::to_string(q.lo) + ", " +
                          std::to_string(q.hi) + "]");
  }
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(TreeRebuilds(store), 0u);
  }
}

// ---------------------------------------------------------------------
// Kill-and-restore: recovered runtime state must answer byte-identically
// to an uninterrupted run (segment ids excluded — execution accidents).

bool SameSegmentModuloId(const Segment& a, const Segment& b) {
  if (a.key != b.key || a.range.lo != b.range.lo ||
      a.range.hi != b.range.hi || a.range.lo_open != b.range.lo_open ||
      a.range.hi_open != b.range.hi_open ||
      a.attributes.size() != b.attributes.size() ||
      a.unmodeled != b.unmodeled) {
    return false;
  }
  for (const auto& [name, poly] : a.attributes) {
    auto it = b.attributes.find(name);
    if (it == b.attributes.end()) return false;
    if (poly.degree() != it->second.degree()) return false;
    for (size_t i = 0; i <= poly.degree(); ++i) {
      if (poly.coeff(i) != it->second.coeff(i)) return false;
    }
  }
  return true;
}

void ExpectSameOutputs(const std::vector<Segment>& base,
                       const std::vector<Segment>& got) {
  ASSERT_EQ(base.size(), got.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_TRUE(SameSegmentModuloId(base[i], got[i]))
        << "output segment " << i << " differs";
  }
}

struct Feed {
  testing::GeneratedCase kase;
  std::vector<std::pair<std::string, Segment>> items;  // (stream, segment)
};

Feed MakeFeed(uint64_t seed) {
  Result<testing::GeneratedCase> kase = testing::GenerateCase(seed);
  EXPECT_TRUE(kase.ok());
  Feed feed;
  feed.kase = std::move(*kase);
  for (const auto& workload : feed.kase.workloads) {
    for (Segment& s : workload.ToSegments()) {
      feed.items.push_back({workload.name, std::move(s)});
    }
  }
  std::stable_sort(feed.items.begin(), feed.items.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.range.lo < b.second.range.lo;
                   });
  return feed;
}

std::vector<Segment> RunUninterrupted(const Feed& feed) {
  HistoricalRuntime::Options options;
  options.collect_outputs = true;
  Result<HistoricalRuntime> rt =
      HistoricalRuntime::Make(feed.kase.spec, options);
  EXPECT_TRUE(rt.ok());
  for (const auto& [stream, segment] : feed.items) {
    EXPECT_TRUE(rt->ProcessSegment(stream, segment).ok());
  }
  EXPECT_TRUE(rt->Finish().ok());
  return rt->TakeOutputSegments();
}

TEST_F(StoreRecoveryTest, KillRestoreHistoricalIsByteIdentical) {
  const Feed feed = MakeFeed(11);
  const std::vector<Segment> base = RunUninterrupted(feed);
  ASSERT_FALSE(feed.items.empty());
  const size_t k = feed.items.size() / 2;

  std::vector<Segment> outputs;
  {
    Result<SegmentStore> store = SegmentStore::Open({.dir = dir_});
    ASSERT_TRUE(store.ok());
    HistoricalRuntime::Options options;
    options.collect_outputs = true;
    Result<HistoricalRuntime> rt =
        HistoricalRuntime::Make(feed.kase.spec, options);
    ASSERT_TRUE(rt.ok());
    for (size_t i = 0; i < k; ++i) {
      const auto& [stream, segment] = feed.items[i];
      ASSERT_TRUE(store->AppendSegment(stream, segment).ok());
      ASSERT_TRUE(rt->ProcessSegment(stream, segment).ok());
    }
    outputs = rt->TakeOutputSegments();
    for (const Segment& s : outputs) store->NoteDelivered(s);
    ASSERT_TRUE(store->WriteCheckpoint(false).ok());
    // Scope exit = the crash: no Finish, no orderly close.
  }

  Result<RecoveredHistorical> recovered =
      RecoverHistorical(feed.kase.spec, {}, {.dir = dir_});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->state_verified) << recovered->verify_detail;
  EXPECT_TRUE(recovered->report.clean());
  for (Segment& s : recovered->pending_outputs) {
    outputs.push_back(std::move(s));
  }
  for (size_t i = k; i < feed.items.size(); ++i) {
    const auto& [stream, segment] = feed.items[i];
    ASSERT_TRUE(recovered->store.AppendSegment(stream, segment).ok());
    ASSERT_TRUE(recovered->runtime.ProcessSegment(stream, segment).ok());
  }
  ASSERT_TRUE(recovered->runtime.Finish().ok());
  for (Segment& s : recovered->runtime.TakeOutputSegments()) {
    outputs.push_back(std::move(s));
  }
  ExpectSameOutputs(base, outputs);
}

TEST_F(StoreRecoveryTest, KillRestoreShardedIsByteIdentical) {
  const Feed feed = MakeFeed(23);
  const std::vector<Segment> base = RunUninterrupted(feed);
  ASSERT_FALSE(feed.items.empty());
  const size_t k = feed.items.size() / 3;

  std::vector<Segment> outputs;
  {
    Result<SegmentStore> store = SegmentStore::Open({.dir = dir_});
    ASSERT_TRUE(store.ok());
    shard::ShardedRuntimeOptions options;
    options.num_shards = 2;
    options.runtime.collect_outputs = true;
    Result<shard::ShardedRuntime> rt =
        shard::ShardedRuntime::Make(feed.kase.spec, std::move(options));
    ASSERT_TRUE(rt.ok());
    for (size_t i = 0; i < k; ++i) {
      const auto& [stream, segment] = feed.items[i];
      ASSERT_TRUE(store->AppendSegment(stream, segment).ok());
      ASSERT_TRUE(rt->ProcessSegment(stream, segment).ok());
    }
    // Barrier makes the released output prefix deterministic — the
    // prerequisite for a mid-run sharded checkpoint.
    ASSERT_TRUE(rt->Barrier().ok());
    outputs = rt->TakeOutputSegments();
    for (const Segment& s : outputs) store->NoteDelivered(s);
    ASSERT_TRUE(store->WriteCheckpoint(false).ok());
  }

  shard::ShardedRuntimeOptions options;
  options.num_shards = 2;
  Result<RecoveredSharded> recovered =
      RecoverSharded(feed.kase.spec, std::move(options), {.dir = dir_});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->state_verified) << recovered->verify_detail;
  for (Segment& s : recovered->pending_outputs) {
    outputs.push_back(std::move(s));
  }
  for (size_t i = k; i < feed.items.size(); ++i) {
    const auto& [stream, segment] = feed.items[i];
    ASSERT_TRUE(recovered->store.AppendSegment(stream, segment).ok());
    ASSERT_TRUE(recovered->runtime.ProcessSegment(stream, segment).ok());
  }
  ASSERT_TRUE(recovered->runtime.Finish().ok());
  for (Segment& s : recovered->runtime.TakeOutputSegments()) {
    outputs.push_back(std::move(s));
  }
  ExpectSameOutputs(base, outputs);
}

// A finished checkpoint restores the post-Finish state: recovery
// replays, Finishes, and the pending outputs equal the full run's.
TEST_F(StoreRecoveryTest, FinishedCheckpointRestoresFinalState) {
  const Feed feed = MakeFeed(5);
  const std::vector<Segment> base = RunUninterrupted(feed);

  {
    Result<SegmentStore> store = SegmentStore::Open({.dir = dir_});
    ASSERT_TRUE(store.ok());
    for (const auto& [stream, segment] : feed.items) {
      ASSERT_TRUE(store->AppendSegment(stream, segment).ok());
    }
    ASSERT_TRUE(store->WriteCheckpoint(/*finished=*/true).ok());
  }
  Result<RecoveredHistorical> recovered =
      RecoverHistorical(feed.kase.spec, {}, {.dir = dir_});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->state_verified) << recovered->verify_detail;
  EXPECT_TRUE(recovered->report.checkpoint.finished);
  ExpectSameOutputs(base, recovered->pending_outputs);
}

}  // namespace
}  // namespace store
}  // namespace pulse
