#ifndef PULSE_CORE_OPERATORS_AGGREGATE_H_
#define PULSE_CORE_OPERATORS_AGGREGATE_H_

#include <deque>
#include <memory>
#include <string>

#include "core/operators/pulse_operator.h"
#include "engine/aggregate.h"
#include "math/roots.h"
#include "model/piecewise.h"

namespace pulse {

/// Configuration shared by the continuous aggregates.
struct PulseAggregateOptions {
  AggFn fn = AggFn::kMin;
  std::string input_attribute;
  std::string output_attribute = "agg";
  /// Window size w (seconds).
  double window_seconds = 1.0;
  /// Window slide (seconds); determines the aggregate's implied output
  /// sampling rate (paper Section III-C: the slide parameter "indicates
  /// the periodicity with which a window closes, and thus the aggregate's
  /// output rate").
  double slide_seconds = 1.0;
};

/// Continuous-time min/max aggregate (paper Section III-B, Fig. 3 row
/// "Aggregate min, max").
///
/// Internal state is a piecewise model s(t): the lower (min) or upper
/// (max) envelope of the input models, per Fig. 2. An arriving segment is
/// compared against the envelope with the difference equation
/// x(t) - s(t) R 0 — the equation system built exactly as for selective
/// operators — and the envelope is updated where the input wins.
///
/// Emission is settled and append-only: changed envelope pieces are
/// buffered, and each is emitted exactly once, in time order, once it
/// can no longer change — i.e. once the input low-watermark (the latest
/// range.lo seen; inputs must arrive ordered by range.lo) has passed the
/// piece. Flush emits the tail. Because no emitted range is ever
/// overridden, downstream operators that drop segments (filters, i.e.
/// HAVING) never pass a stale slice of a superseded piece.
class PulseMinMaxAggregate : public PulseOperator {
 public:
  PulseMinMaxAggregate(std::string name, PulseAggregateOptions options);

  Status Process(size_t port, const Segment& segment,
                 SegmentBatch* out) override;

  Status Flush(SegmentBatch* out) override;

  Result<std::vector<AllocatedBound>> InvertBound(
      const Segment& output, const std::string& attribute, double margin,
      const SplitHeuristic& split) const override;

  /// Slack of the input segment against the current envelope: how far the
  /// segment is from updating the aggregate (for slack validation).
  Result<double> ComputeSlack(const Segment& segment) const;

  const PiecewiseModel& state() const { return state_; }

 private:
  /// One envelope piece awaiting emission.
  struct FinalPiece {
    Interval range;
    Polynomial poly;
    Key arg_key = 0;
    std::shared_ptr<const Segment> cause;  // causing input, for lineage
  };

  // Overrides pending_ coverage on `range` with the new piece.
  void OverrideInsert(FinalPiece piece);
  // Emits (and drops) pending pieces wholly before `watermark`.
  void EmitSettled(double watermark, SegmentBatch* out);
  Segment MakeOutput(const FinalPiece& piece);

  PulseAggregateOptions options_;
  bool is_min_;
  PiecewiseModel state_;
  double latest_time_ = 0.0;
  double last_expire_ = 0.0;
  /// Unsettled envelope pieces, time-ordered and non-overlapping.
  std::deque<FinalPiece> pending_;
};

/// Continuous-time sum/avg aggregate via *window functions* (paper
/// Section III-B, Eq. 2).
///
/// A window function is parameterized by the window's closing timestamp t
/// and returns the window's value: for sum, the integral of the modeled
/// attribute over [t-w, t]. For every emitted validity range the operator
/// assembles wf_sum(t) = tail integral + cached full-segment constants C
/// + head integral, where the tail's (t-w) terms are expanded by the
/// binomial theorem (Polynomial::Shift). The result is itself a piecewise
/// polynomial in t — window functions preserve continuity downstream.
/// wf_avg = wf_sum / w.
class PulseSumAvgAggregate : public PulseOperator {
 public:
  PulseSumAvgAggregate(std::string name, PulseAggregateOptions options);

  Status Process(size_t port, const Segment& segment,
                 SegmentBatch* out) override;

  Result<std::vector<AllocatedBound>> InvertBound(
      const Segment& output, const std::string& attribute, double margin,
      const SplitHeuristic& split) const override;

  size_t stored_segments() const { return stored_.size(); }

 private:
  /// Cached per-input-segment metadata (Section III-B: "for every input
  /// segment we compute and cache the segment integral C, in addition to
  /// a function for the tail integral").
  struct Stored {
    Interval range;
    Polynomial anti;     // antiderivative of the input attribute
    double full = 0.0;   // definite integral over `range`
    // The causing input segment; every window output citing it shares
    // this one copy in its lineage.
    std::shared_ptr<const Segment> input;
  };

  // Emits window-function segments for closes in [from, to).
  Status EmitWindows(double from, double to, SegmentBatch* out);
  // Index of the stored segment containing time `t` (coverage is
  // contiguous), or npos.
  size_t FindStored(double t) const;

  PulseAggregateOptions options_;
  std::deque<Stored> stored_;
  double coverage_start_ = 0.0;  // earliest contiguously covered time
  double last_emit_ = 0.0;       // all closes < last_emit_ are emitted
  bool have_any_ = false;
};

/// Factory dispatching on options.fn (min/max -> envelope aggregate,
/// sum/avg -> window functions). Count is rejected: frequency-based
/// aggregates have no continuous form (paper "Transformation
/// Limitations").
Result<std::unique_ptr<PulseOperator>> MakePulseAggregate(
    std::string name, PulseAggregateOptions options);

}  // namespace pulse

#endif  // PULSE_CORE_OPERATORS_AGGREGATE_H_
