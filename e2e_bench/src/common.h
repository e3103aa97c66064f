// Shared plumbing of the end-to-end benchmark: command line, clocks,
// order statistics, the metric set a run prints, the in-memory span
// tracer, and registry snapshot helpers.
#ifndef E2E_BENCH_COMMON_H_
#define E2E_BENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace e2e {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny input sizes for the smoke test; never used for reported runs.
  bool smoke = false;
};

/// Steady-clock nanoseconds (monotonic, process-wide epoch).
int64_t NowNs();
/// CPU nanoseconds consumed by every thread of this process.
int64_t ProcessCpuNs();
/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();
/// CPUs this process may run on (what `nproc` prints).
unsigned Nproc();
void SleepUntilNs(int64_t deadline_ns);

/// Linear-interpolated percentile (p in [0, 100]); 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Pins the calling thread to the `index`-th CPU (modulo the count) of
/// the set the process started with, or restores that whole set when
/// `index` is negative. Single-threaded rounds rotate over the CPUs so
/// that every run samples each one, whatever shares its core.
void PinToCpu(int index);

/// Steal time the kernel reports for all CPUs (/proc/stat), in ns: CPU
/// time the hypervisor gave to other guests. 0 where none is reported.
int64_t StealNs();

/// Times one round (or pass) of a run and the steal time during it.
class RoundClock {
 public:
  RoundClock() : wall0_(NowNs()), steal0_(StealNs()) {}
  /// Share of the CPUs this process may use that was stolen so far.
  double StealFraction() const;

 private:
  int64_t wall0_;
  int64_t steal0_;
};

/// Every round (or pass) of a run repeats the same work. A round during
/// which the hypervisor stole over 1% of the CPUs did not measure the
/// program alone, so a run reports over the other rounds (over the
/// least-stolen third of its rounds when fewer qualify). `steal` is
/// parallel to the per-round values. Returns the kept rounds' indices.
std::vector<size_t> UnstolenRounds(const std::vector<double>& steal);
/// Median of the kept rounds' values.
double UnstolenMedian(const std::vector<double>& per_round,
                      const std::vector<double>& steal);
/// Median over the kept rounds of each round's own p-th percentile of
/// its samples (rounds without samples are skipped). A host stall backs
/// up every answer queued behind it, so a pooled percentile would belong
/// to the few rounds a stall hit; this one is the typical round's.
double UnstolenMedianPercentile(
    const std::vector<std::vector<double>>& per_round,
    const std::vector<double>& steal, double p);
/// Every round's samples in one list, for run notes.
std::vector<double> Pool(const std::vector<std::vector<double>>& per_round);
/// "min <a> median <b> max <c> (n <k>)" for run notes.
std::string MinMedianMax(const std::vector<double>& values);
/// "p50 <a> p75 <b> p90 <c> p99 <d> (n <k>)" for run notes.
std::string Quantiles(const std::vector<double>& values);

/// Metrics of one run, printed in insertion order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Everything a workload hands back to main().
struct RunResult {
  /// Verification passed and the run is valid (generator kept up).
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
  /// Human-readable notes (why verification failed, sample counts).
  std::vector<std::string> notes;
};

/// One recorded span: a timed call the benchmark made into a layer.
struct SpanRecord {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by one frame's / one query's spans
};

class Tracer;

/// Per-thread span sink (no locking on the recording path).
class SpanBuffer {
 public:
  explicit SpanBuffer(Tracer* tracer) : tracer_(tracer) {}
  /// Records a finished span and returns its id.
  uint64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint64_t parent, uint64_t request);
  /// Reserves an id for a span whose children are recorded before it.
  uint64_t NewId();
  void AddWithId(uint64_t id, const char* name, int64_t start_ns,
                 int64_t end_ns, uint64_t parent, uint64_t request);

 private:
  friend class Tracer;
  Tracer* tracer_;
  std::vector<SpanRecord> spans_;
};

/// Span collector of a traced run. Spans stay in memory and are written
/// once, at exit. A disabled tracer hands out null buffers, so call
/// sites record nothing in untraced runs.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A buffer owned by the tracer (nullptr when disabled). Each thread
  /// records into its own buffer.
  SpanBuffer* NewBuffer();

  struct NameStats {
    uint64_t count = 0;
    double total_ms = 0.0;
    /// Duration minus the part covered by child spans.
    double self_ms = 0.0;
  };
  /// Per span name: count, total and self time.
  std::vector<std::pair<std::string, NameStats>> Summary() const;
  /// Durations (ns) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes every span plus the summary as JSON; false on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  friend class SpanBuffer;
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// RAII span into a possibly-null buffer.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t parent = 0,
             uint64_t request = 0)
      : buffer_(buffer),
        name_(name),
        parent_(parent),
        request_(request),
        id_(buffer != nullptr ? buffer->NewId() : 0),
        start_(buffer != nullptr ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) {
      buffer_->AddWithId(id_, name_, start_, NowNs(), parent_, request_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanBuffer* buffer_;
  const char* name_;
  uint64_t parent_;
  uint64_t request_;
  uint64_t id_;
  int64_t start_;
};

// Registry snapshot accessors (0 when the metric is absent).
uint64_t CounterOf(const pulse::obs::MetricsSnapshot& snap,
                   const std::string& name);
pulse::obs::HistogramStats HistOf(const pulse::obs::MetricsSnapshot& snap,
                                  const std::string& name);
/// Sum of `sum` over every histogram whose name starts with `prefix`.
uint64_t HistSumWithPrefix(const pulse::obs::MetricsSnapshot& snap,
                           const std::string& prefix);
double Ratio(double num, double den);

/// The per-layer metric names every traced run prints (in this order),
/// with their units. Layers a workload does not run report 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
/// Fills every per-layer metric not already in `set` with 0.
void CompletePerLayer(MetricSet* set);

/// Sets the registry-derived solver metrics (core.* and math.*) from a
/// runtime registry snapshot covering `tuples` input tuples.
void SetSolverMetrics(const pulse::obs::MetricsSnapshot& snap, double tuples,
                      MetricSet* out);

/// Working directory for run-scoped files (store logs, traces), under
/// the current directory; created on demand.
std::string WorkDir();

}  // namespace e2e

#endif  // E2E_BENCH_COMMON_H_
