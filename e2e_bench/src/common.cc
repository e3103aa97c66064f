#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <unordered_map>

#include "util/json.h"

namespace e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void PinToCpu(int index) {
  static const cpu_set_t initial = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  if (index < 0) {
    sched_setaffinity(0, sizeof(initial), &initial);
    return;
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &initial)) cpus.push_back(c);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<size_t>(index) % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

void SleepUntilNs(int64_t deadline_ns) {
  const int64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

int64_t StealNs() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  int64_t fields[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return 0;
  for (int64_t& f : fields) {
    if (!(stat >> f)) return 0;
  }
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? fields[7] * (1000000000 / hz) : 0;
}

double RoundClock::StealFraction() const {
  const double wall = static_cast<double>(NowNs() - wall0_) * Nproc();
  return wall > 0 ? static_cast<double>(StealNs() - steal0_) / wall : 0.0;
}

std::vector<size_t> UnstolenRounds(const std::vector<double>& steal) {
  constexpr double kMaxSteal = 0.01;
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t keep = 0;
  while (keep < order.size() && steal[order[keep]] <= kMaxSteal) ++keep;
  keep = std::max(keep, std::max<size_t>(1, (order.size() + 2) / 3));
  order.resize(std::min(keep, order.size()));
  return order;
}

double UnstolenMedian(const std::vector<double>& per_round,
                      const std::vector<double>& steal) {
  std::vector<double> kept;
  for (size_t i : UnstolenRounds(steal)) kept.push_back(per_round[i]);
  return Median(std::move(kept));
}

double UnstolenMedianPercentile(
    const std::vector<std::vector<double>>& per_round,
    const std::vector<double>& steal, double p) {
  std::vector<double> kept;
  for (size_t i : UnstolenRounds(steal)) {
    if (!per_round[i].empty()) kept.push_back(Percentile(per_round[i], p));
  }
  return Median(std::move(kept));
}

std::vector<double> Pool(const std::vector<std::vector<double>>& per_round) {
  std::vector<double> pool;
  for (const auto& round : per_round) {
    pool.insert(pool.end(), round.begin(), round.end());
  }
  return pool;
}

std::string MinMedianMax(const std::vector<double>& values) {
  if (values.empty()) return "(no samples)";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "min %.6g median %.6g max %.6g (n %zu)",
                *std::min_element(values.begin(), values.end()),
                Median(values),
                *std::max_element(values.begin(), values.end()),
                values.size());
  return buf;
}

std::string Quantiles(const std::vector<double>& values) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p50 %.6g p75 %.6g p90 %.6g p99 %.6g (n %zu)",
                Percentile(values, 50), Percentile(values, 75),
                Percentile(values, 90), Percentile(values, 99), values.size());
  return buf;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

uint64_t SpanBuffer::NewId() {
  return tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
}

void SpanBuffer::AddWithId(uint64_t id, const char* name, int64_t start_ns,
                           int64_t end_ns, uint64_t parent,
                           uint64_t request) {
  spans_.push_back(SpanRecord{name, start_ns, end_ns, id, parent, request});
}

uint64_t SpanBuffer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                         uint64_t parent, uint64_t request) {
  const uint64_t id = NewId();
  AddWithId(id, name, start_ns, end_ns, parent, request);
  return id;
}

SpanBuffer* Tracer::NewBuffer() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>(this));
  return buffers_.back().get();
}

std::vector<std::pair<std::string, Tracer::NameStats>> Tracer::Summary()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  // Child time per parent id; children of one parent never overlap
  // (each parent's children are recorded by the thread that made them).
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& s : buffer->spans_) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, NameStats> by_name;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& s : buffer->spans_) {
      NameStats& st = by_name[s.name];
      const int64_t dur = s.end_ns - s.start_ns;
      auto it = child_ns.find(s.id);
      const int64_t self = dur - (it == child_ns.end() ? 0 : it->second);
      ++st.count;
      st.total_ms += static_cast<double>(dur) / 1e6;
      st.self_ms += static_cast<double>(std::max<int64_t>(self, 0)) / 1e6;
    }
  }
  return {by_name.begin(), by_name.end()};
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& s : buffer->spans_) {
      if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  pulse::json::Writer w(0);
  w.BeginObject();
  w.Key("summary").BeginObject();
  for (const auto& [name, st] : Summary()) {
    w.Key(name).BeginObject();
    w.Key("count").Uint(st.count);
    w.Key("total_ms").Double(st.total_ms);
    w.Key("self_ms").Double(st.self_ms);
    w.EndObject();
  }
  w.EndObject();
  w.Key("spans").BeginArray();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      for (const SpanRecord& s : buffer->spans_) {
        w.BeginArray();
        w.String(s.name);
        w.Int(s.start_ns);
        w.Int(s.end_ns);
        w.Uint(s.id);
        w.Uint(s.parent);
        w.Uint(s.request);
        w.EndArray();
      }
    }
  }
  w.EndArray();
  w.EndObject();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << w.Take() << "\n";
  return static_cast<bool>(out);
}

uint64_t CounterOf(const pulse::obs::MetricsSnapshot& snap,
                   const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

pulse::obs::HistogramStats HistOf(const pulse::obs::MetricsSnapshot& snap,
                                  const std::string& name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? pulse::obs::HistogramStats{}
                                     : it->second;
}

uint64_t HistSumWithPrefix(const pulse::obs::MetricsSnapshot& snap,
                           const std::string& prefix) {
  uint64_t sum = 0;
  for (auto it = snap.histograms.lower_bound(prefix);
       it != snap.histograms.end() && it->first.rfind(prefix, 0) == 0; ++it) {
    sum += it->second.sum;
  }
  return sum;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"serve.client_send_us_p99", "us"},
      {"serve.client_read_us_p50", "us"},
      {"serve.blocked_ns_per_tuple", "ns"},
      {"serve.admit_us_p99", "us"},
      {"serve.batch_size_mean", "tuples"},
      {"serve.cpu_ns_per_tuple", "ns"},
      {"serve.tcp_cpu_ns_per_tuple", "ns"},
      {"serve.tuples", "count"},
      {"shard.cpu_ns_per_tuple", "ns"},
      {"shard.imbalance", "ratio"},
      {"shard.push_busy_frac", "fraction"},
      {"model.cpu_ns_per_tuple", "ns"},
      {"model.tuples_per_segment", "tuples"},
      {"model.segments", "count"},
      {"core.cpu_ns_per_tuple", "ns"},
      {"core.push_segment_us_p50", "us"},
      {"core.push_segment_us_p99", "us"},
      {"core.join_match_ns_per_tuple", "ns"},
      {"core.solves_per_tuple", "ratio"},
      {"core.solve_cache_hit_frac", "fraction"},
      {"core.solve_cache_lookups", "count"},
      {"core.validated_frac", "fraction"},
      {"core.violations", "count"},
      {"core.process_tuple_ns_p50", "ns"},
      {"core.process_tuple_ns_p99", "ns"},
      {"core.tuples", "count"},
      {"math.kernel_ns_per_tuple", "ns"},
      {"math.solve_batch_ns_per_tuple", "ns"},
      {"math.batch_fill", "lanes"},
      {"math.batch_flushes", "count"},
      {"math.scalar_fallback_frac", "fraction"},
      {"store.append_us_p50", "us"},
      {"store.append_us_p99", "us"},
      {"store.rebuilds_per_query", "ratio"},
      {"store.tree_queries", "count"},
      {"store.append_bytes_per_segment", "bytes"},
      {"store.recover_records_per_s", "1/s"},
      {"store.recover_s", "s"},
      {"driver.late_p99_ms", "ms"},
      {"obs.trace_overhead_frac", "fraction"},
      {"obs.spans", "count"},
      {"unattributed_frac", "fraction"},
  };
  return kMetrics;
}

void CompletePerLayer(MetricSet* set) {
  MetricSet ordered;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    double value = 0.0;
    for (const auto& item : set->items()) {
      if (item.first == name) value = item.second.first;
    }
    ordered.Set(name, value, unit);
  }
  *set = std::move(ordered);
}

void SetSolverMetrics(const pulse::obs::MetricsSnapshot& snap, double tuples,
                      MetricSet* out) {
  const pulse::obs::HistogramStats push =
      HistOf(snap, "span/runtime/push_segment");
  out->Set("core.push_segment_us_p50", push.p50 / 1e3, "us");
  out->Set("core.push_segment_us_p99", push.p99 / 1e3, "us");
  out->Set("core.join_match_ns_per_tuple",
           Ratio(static_cast<double>(
                     HistOf(snap, "span/join/match_partners").sum),
                 tuples),
           "ns");
  uint64_t solves = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("op/", 0) == 0 && name.size() > 7 &&
        name.compare(name.size() - 7, 7, "/solves") == 0) {
      solves += value;
    }
  }
  out->Set("core.solves_per_tuple",
           Ratio(static_cast<double>(solves), tuples), "ratio");
  const double lookups =
      static_cast<double>(CounterOf(snap, "solve_cache/lookups"));
  out->Set("core.solve_cache_hit_frac",
           Ratio(static_cast<double>(CounterOf(snap, "solve_cache/hits")),
                 lookups),
           "fraction");
  out->Set("core.solve_cache_lookups", lookups, "count");
  out->Set("core.tuples", tuples, "count");
  out->Set("math.kernel_ns_per_tuple",
           Ratio(static_cast<double>(HistSumWithPrefix(snap, "span/solver/")),
                 tuples),
           "ns");
  out->Set("math.solve_batch_ns_per_tuple",
           Ratio(static_cast<double>(HistOf(snap, "span/solve/batch").sum),
                 tuples),
           "ns");
  const double filled =
      static_cast<double>(CounterOf(snap, "solver/batch/filled"));
  const double flushes =
      static_cast<double>(CounterOf(snap, "solver/batch/flushed"));
  const double fallback =
      static_cast<double>(CounterOf(snap, "solver/batch/scalar_fallback"));
  out->Set("math.batch_fill", Ratio(filled, flushes), "lanes");
  out->Set("math.batch_flushes", flushes, "count");
  out->Set("math.scalar_fallback_frac", Ratio(fallback, filled + fallback),
           "fraction");
}

std::string WorkDir() {
  const std::string dir = ".bench_work";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

}  // namespace e2e
