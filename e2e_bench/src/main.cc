// Pulse end-to-end benchmark driver. One invocation runs one workload:
//
//   pulse_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and prints, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Untraced runs carry the
// end-to-end metrics, traced runs the per-layer metrics (README.md in
// this directory maps layers to metrics and workloads). The line before
// it records provenance: nproc, the dispatched solver kernel, the build
// type and the source revision.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "obs/metrics.h"
#include "util/cpu_features.h"
#include "util/json.h"
#include "workloads.h"

#ifndef PULSE_E2E_BUILD_TYPE
#define PULSE_E2E_BUILD_TYPE "unknown"
#endif

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

bool ParseArgs(int argc, char** argv, e2e::Args* args) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || args->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return have_workload && have_seed;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pulse_e2e --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke]\n");
    return 2;
  }
  if (kSanitized || !pulse::obs::kMetricsEnabled) {
    std::fprintf(stderr,
                 "refusing to report: sanitizer or PULSE_NO_METRICS build\n");
    return 3;
  }
  const e2e::WorkloadFn fn = e2e::FindWorkload(args.workload);
  if (fn == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  e2e::Tracer tracer(args.trace);
  e2e::RunResult result = fn(args, &tracer);
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "[%s] %s\n", args.workload.c_str(), note.c_str());
  }
  if (args.trace) {
    uint64_t spans = 0;
    for (const auto& [name, st] : tracer.Summary()) spans += st.count;
    result.metrics.Set("obs.spans", static_cast<double>(spans), "count");
    e2e::CompletePerLayer(&result.metrics);
    // One file per workload: the latest traced run replaces it.
    const std::string path =
        e2e::WorkDir() + "/trace-" + args.workload + ".json";
    if (!tracer.WriteJson(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "[%s] spans written to %s\n", args.workload.c_str(),
                 path.c_str());
  } else {
    result.metrics.Set("peak_rss_mb", e2e::PeakRssMb(), "MB");
  }

  pulse::json::Writer prov(0);
  prov.BeginObject();
  prov.Key("provenance").BeginObject();
  prov.Key("workload").String(args.workload);
  prov.Key("seed").Uint(args.seed);
  prov.Key("seconds").Double(args.seconds);
  prov.Key("nproc").Uint(e2e::Nproc());
  prov.Key("solver_kernel")
      .String(pulse::SimdLevelName(pulse::ActiveSimdLevel()));
  prov.Key("build_type").String(PULSE_E2E_BUILD_TYPE);
  prov.Key("git_commit").String(EnvOr("PULSE_E2E_COMMIT", "unknown"));
  prov.Key("source_sha256").String(EnvOr("PULSE_E2E_SOURCE_SHA256", "unknown"));
  prov.EndObject();
  prov.EndObject();
  std::printf("%s\n", prov.Take().c_str());

  pulse::json::Writer w(0);
  w.BeginObject();
  w.Key("correct").Bool(result.correct);
  w.Key("attempted").Uint(result.attempted);
  w.Key("failed").Uint(result.failed);
  w.Key("metrics").BeginObject();
  for (const auto& [name, value_unit] : result.metrics.items()) {
    w.Key(name).BeginObject();
    w.Key("value").Double(value_unit.first);
    w.Key("unit").String(value_unit.second);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.Take().c_str());
  std::fflush(stdout);
  return 0;
}
