// The benchmark's workloads and the serving-client plumbing two of them
// share.
#ifndef E2E_BENCH_WORKLOADS_H_
#define E2E_BENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/runtime.h"
#include "model/segment.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "store/checksum.h"
#include "util/result.h"

namespace e2e {

using WorkloadFn = RunResult (*)(const Args&, Tracer*);

/// nullptr for an unknown name.
WorkloadFn FindWorkload(const std::string& name);

RunResult RunServeFilter(const Args& args, Tracer* tracer);
RunResult RunBatchJoin(const Args& args, Tracer* tracer);
RunResult RunPredictMacd(const Args& args, Tracer* tracer);
RunResult RunIngestDurable(const Args& args, Tracer* tracer);

/// SplitMix64 of (seed, salt): every generator seed derives from the
/// workload seed through this and nothing else.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// Canonical hash chain (ids excluded) over an output sequence, continued
/// from `h` (the chain's seed by default).
uint64_t HashSegments(const std::vector<pulse::Segment>& segments,
                      uint64_t h = pulse::store::kCanonicalHashSeed);

/// Stream the serving workloads declare and the Fig. 5 filter
/// `objects.x < threshold` over it.
pulse::QuerySpec MovingObjectFilterSpec(double threshold);

/// Opens a protocol session on `transport` with stream id 1 bound to
/// `stream`.
pulse::Result<std::unique_ptr<pulse::serve::ServeClient>> OpenSession(
    std::unique_ptr<pulse::serve::Transport> transport,
    const std::string& stream);

/// Writes a kDrain frame. The reader thread collects the reply.
pulse::Status SendDrain(pulse::serve::ServeClient* client);

/// Reads server frames until kDrained. Each output segment is handed to
/// `on_segment` with the steady-clock time it was decoded; the callback
/// returns the request id to stamp on that frame's read span (a child
/// of `parent`). Input loss (a flow frame reporting drops or shed) is an
/// error: every serving workload runs the lossless `block` policy.
pulse::Status ReadUntilDrained(
    pulse::serve::ServeClient* client,
    const std::function<uint64_t(pulse::Segment&&, int64_t)>& on_segment,
    SpanBuffer* spans, uint64_t parent);

/// Per-layer serve.*, shard.*, model.*, core.* and math.* numbers from a
/// server's registries; `wall_s` is the wall time the traffic took.
void SetServerMetrics(const pulse::serve::StreamServer& server, double wall_s,
                      MetricSet* out);

}  // namespace e2e

#endif  // E2E_BENCH_WORKLOADS_H_
