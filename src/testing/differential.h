#ifndef PULSE_TESTING_DIFFERENTIAL_H_
#define PULSE_TESTING_DIFFERENTIAL_H_

#include <string>
#include <vector>

#include "testing/plan_gen.h"
#include "util/result.h"

namespace pulse {
namespace testing {

/// One observed disagreement. The harness reports the first few in full
/// (time, key, attribute, both values) so a failure is actionable without
/// rerunning under a debugger.
struct Divergence {
  /// Which check fired, e.g. "pointwise.uncovered", "aggregate.value",
  /// "metamorphic.shards2".
  std::string check;
  double time = 0.0;
  Key key = 0;
  std::string attribute;
  double expected = 0.0;
  double actual = 0.0;
  std::string detail;

  std::string ToString() const;
};

struct DiffOptions {
  /// Shard counts of the sharded metamorphic variants: the same segment
  /// feed replayed through the shard-per-core ShardedRuntime must be
  /// byte-identical to the serial unsharded run for every count
  /// (docs/SHARDING.md determinism contract). Empty disables the
  /// sharded variants.
  std::vector<size_t> shard_counts = {2, 3};
  /// Stop collecting divergences past this count (a broken operator
  /// would otherwise report one per grid point).
  size_t max_divergences = 8;
  /// Also push the segment feed through the in-process serving
  /// transport (frame codec -> session queue -> in-order worker ->
  /// drain; lossless kBlock configuration) and require the delivered
  /// outputs to be byte-identical to the direct replay — proving
  /// serving-layer queueing/backpressure never change query answers,
  /// only admission (docs/SERVING.md).
  bool serving_variant = true;
  /// Kill-and-restore variant (docs/STORAGE.md): run the feed to a
  /// seed-derived midpoint against a durable SegmentStore in a private
  /// temp directory, checkpoint, destroy every piece of process state,
  /// recover from disk, then finish the remainder of the feed. The
  /// concatenation delivered-prefix ++ recovered-pending ++
  /// post-restore outputs must be byte-identical to the uninterrupted
  /// run — the crash-consistency contract of the tiered segment store.
  bool kill_restore_variant = true;
  /// Replay the feed with solver dispatch pinned to the scalar kernels
  /// (SetSimdOverrideForTesting) — unsharded and sharded — and require
  /// byte-identity with the SIMD-batched base run.
  /// This is the determinism contract of the batched kernels: vector
  /// lanes reproduce the scalar closed forms bit for bit
  /// (docs/PERFORMANCE.md, "Batched solver kernels").
  bool forced_scalar_variant = true;
  /// Adaptive-precision variant (docs/PRECISION.md): replay the feed
  /// through an AdaptiveRuntime under a seed-derived tier schedule
  /// (exact / widened / tier-to-tier moves across the middle third) and
  /// require (a) the settled output stream byte-identical to the static
  /// base run, (b) conservation — every provisional settles exactly
  /// once, provisional == confirmed + retracted and nothing open after
  /// Finish — and (c) every confirm/retract references a previously
  /// emitted provisional lineage.
  bool precision_variant = true;
};

/// Result of one differential run. `ok()` means: the discrete engine and
/// the Pulse runtime agreed everywhere the bound-aware matcher requires
/// agreement, and all metamorphic Pulse variants (shards, forced-scalar,
/// serving, precision, kill-restore) produced byte-identical output.
struct DiffReport {
  uint64_t seed = 0;
  std::string description;
  std::vector<Divergence> divergences;
  /// Total divergence count (reporting stops at max_divergences).
  size_t divergence_count = 0;
  size_t discrete_output_tuples = 0;
  size_t pulse_output_segments = 0;
  /// Number of metrics invariants evaluated (0 only when the registry is
  /// compiled out via PULSE_NO_METRICS) — lets tests assert the metrics
  /// checks are not vacuous.
  size_t metrics_checks = 0;

  bool ok() const { return divergence_count == 0; }
  /// Failure message including the replay seed.
  std::string ToString() const;
};

/// Runs `kase` through the discrete executor (densely sampled tuples) and
/// the Pulse runtime (exact model segments, plus the metamorphic
/// variants of DiffOptions), then matches outputs per kase.sink (see
/// docs/TESTING.md for the oracle design and tolerance rationale). Both
/// runs report through a MetricsRegistry, and the harness additionally
/// checks the metrics invariant of docs/OBSERVABILITY.md: per-operator
/// counter name parity across realizations.
Result<DiffReport> RunDifferential(const GeneratedCase& kase,
                                   const DiffOptions& options = {});

/// Convenience wrapper: GenerateCase(seed) + RunDifferential.
Result<DiffReport> RunDifferentialSeed(uint64_t seed,
                                       const PlanGenOptions& gen = {},
                                       const DiffOptions& options = {});

}  // namespace testing
}  // namespace pulse

#endif  // PULSE_TESTING_DIFFERENTIAL_H_
