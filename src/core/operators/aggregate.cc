#include "core/operators/aggregate.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/equation_system.h"
#include "util/logging.h"

namespace pulse {

namespace {
// Contiguity tolerance between consecutive input segments: a gap larger
// than this resets sum/avg window coverage.
constexpr double kGapTolerance = 1e-9;
}  // namespace

PulseMinMaxAggregate::PulseMinMaxAggregate(std::string name,
                                           PulseAggregateOptions options)
    : PulseOperator(std::move(name)), options_(std::move(options)) {
  PULSE_CHECK(options_.fn == AggFn::kMin || options_.fn == AggFn::kMax);
  PULSE_CHECK(options_.window_seconds > 0.0);
  is_min_ = options_.fn == AggFn::kMin;
}

Status PulseMinMaxAggregate::Process(size_t port, const Segment& segment,
                                     SegmentBatch* out) {
  PULSE_CHECK(port == 0);
  metrics_.segments_in->Increment();
  PULSE_ASSIGN_OR_RETURN(Polynomial poly,
                         segment.attribute(options_.input_attribute));
  latest_time_ = std::max(latest_time_, segment.range.lo);
  // Bound state: drop envelope pieces older than the window (paper Fig. 3
  // state: S = {([tl,tu), s) | tl > tx - w}). The linear-time sweep runs
  // periodically, not per segment.
  if (latest_time_ - last_expire_ > options_.window_seconds / 16.0) {
    state_.ExpireBefore(latest_time_ - options_.window_seconds);
    lineage_.ExpireBefore(latest_time_ - options_.window_seconds);
    last_expire_ = latest_time_;
  }

  metrics_.solves->Increment();
  const IntervalSet changed =
      state_.MergeEnvelope(Piece{segment.range, poly}, is_min_);
  // Every piece this segment wins shares one copy of it as its cause.
  std::shared_ptr<const Segment> cause;
  for (const Interval& iv : changed.intervals()) {
    if (iv.IsPoint()) continue;  // tangency: no change of measure
    if (cause == nullptr) cause = std::make_shared<const Segment>(segment);
    OverrideInsert(FinalPiece{Interval::ClosedOpen(iv.lo, iv.hi), poly,
                              segment.key, cause});
  }
  // Inputs arrive ordered by range.lo, so every change going forward
  // starts at or after this segment's lo: everything before it is
  // settled and safe to release downstream.
  EmitSettled(segment.range.lo, out);
  metrics_.state_size.Set(state_.size());
  return Status::OK();
}

void PulseMinMaxAggregate::OverrideInsert(FinalPiece piece) {
  // Trim existing coverage overlapping the newcomer (the newcomer is the
  // later word on those times), keeping any left/right remainders, then
  // splice the newcomer in at its time-ordered position.
  std::deque<FinalPiece> next;
  bool inserted = false;
  for (FinalPiece& p : pending_) {
    if (p.range.hi <= piece.range.lo) {
      next.push_back(std::move(p));
      continue;
    }
    if (p.range.lo >= piece.range.hi) {
      if (!inserted) {
        next.push_back(piece);
        inserted = true;
      }
      next.push_back(std::move(p));
      continue;
    }
    if (p.range.lo < piece.range.lo) {
      FinalPiece left = p;
      left.range = Interval::ClosedOpen(p.range.lo, piece.range.lo);
      if (!left.range.IsEmpty()) next.push_back(std::move(left));
    }
    if (!inserted) {
      next.push_back(piece);
      inserted = true;
    }
    if (p.range.hi > piece.range.hi) {
      FinalPiece right = std::move(p);
      right.range = Interval::ClosedOpen(piece.range.hi, right.range.hi);
      if (!right.range.IsEmpty()) next.push_back(std::move(right));
    }
  }
  if (!inserted) next.push_back(std::move(piece));
  pending_ = std::move(next);
}

Segment PulseMinMaxAggregate::MakeOutput(const FinalPiece& piece) {
  Segment result;
  result.id = NextSegmentId();
  result.key = 0;  // aggregate spans all input keys
  result.range = piece.range;
  result.set_attribute(options_.output_attribute, piece.poly);
  result.unmodeled["arg_key"] = static_cast<double>(piece.arg_key);
  lineage_.Record(result.id, piece.range, {LineageEntry{0, piece.cause}});
  metrics_.segments_out->Increment();
  return result;
}

void PulseMinMaxAggregate::EmitSettled(double watermark, SegmentBatch* out) {
  while (!pending_.empty() && pending_.front().range.hi <= watermark) {
    out->push_back(MakeOutput(pending_.front()));
    pending_.pop_front();
  }
}

Status PulseMinMaxAggregate::Flush(SegmentBatch* out) {
  EmitSettled(std::numeric_limits<double>::infinity(), out);
  return Status::OK();
}

namespace {

// Shared inversion body: apportions `base_margin` on `input_attribute`
// across an aggregate output's causing inputs.
Result<std::vector<AllocatedBound>> InvertAggregateBound(
    const LineageStore& lineage, const Segment& output,
    const std::string& attribute, const std::string& input_attribute,
    double base_margin, const SplitHeuristic& split) {
  const std::vector<LineageEntry>* causes = lineage.Lookup(output.id);
  if (causes == nullptr) {
    return Status::NotFound("no lineage for output segment " +
                            std::to_string(output.id));
  }
  std::vector<const Segment*> inputs;
  inputs.reserve(causes->size());
  for (const LineageEntry& e : *causes) inputs.push_back(e.input.get());
  SplitContext ctx;
  ctx.output = &output;
  ctx.attribute = attribute;
  ctx.margin = base_margin;
  ctx.inputs = inputs;
  ctx.input_attribute = input_attribute;
  ctx.num_dependencies = 1;
  PULSE_ASSIGN_OR_RETURN(std::vector<AllocatedBound> allocs,
                         split.Apportion(ctx));
  for (size_t i = 0; i < allocs.size(); ++i) {
    allocs[i].port = (*causes)[i].port;
    allocs[i].segment_id = (*causes)[i].input->id;
  }
  return allocs;
}

}  // namespace

Result<std::vector<AllocatedBound>> PulseMinMaxAggregate::InvertBound(
    const Segment& output, const std::string& attribute, double margin,
    const SplitHeuristic& split) const {
  if (attribute != options_.output_attribute) {
    return Status::InvalidArgument("unknown aggregate output attribute '" +
                                   attribute + "'");
  }
  // min/max are 1-Lipschitz in the sup norm: a deviation of d on the
  // winning input moves the envelope by at most d, so the margin passes
  // through unchanged before splitting.
  return InvertAggregateBound(lineage_, output, attribute,
                              options_.input_attribute, margin, split);
}

Result<double> PulseMinMaxAggregate::ComputeSlack(
    const Segment& segment) const {
  PULSE_ASSIGN_OR_RETURN(Polynomial poly,
                         segment.attribute(options_.input_attribute));
  // Slack of x(t) - s(t) over the overlap with the stored envelope.
  double slack = std::numeric_limits<double>::infinity();
  for (const Piece& piece : state_.pieces()) {
    const Interval overlap = piece.range.Intersect(segment.range);
    if (overlap.IsEmpty()) continue;
    EquationSystem system;
    system.AddRow(DifferenceEquation{poly - piece.poly,
                                     is_min_ ? CmpOp::kLt : CmpOp::kGt});
    slack = std::min(slack, system.Slack(overlap));
  }
  return slack;
}

PulseSumAvgAggregate::PulseSumAvgAggregate(std::string name,
                                           PulseAggregateOptions options)
    : PulseOperator(std::move(name)), options_(std::move(options)) {
  PULSE_CHECK(options_.fn == AggFn::kSum || options_.fn == AggFn::kAvg);
  PULSE_CHECK(options_.window_seconds > 0.0);
}

size_t PulseSumAvgAggregate::FindStored(double t) const {
  // stored_ is time-ordered and contiguous: binary search, treating
  // ranges as closed on the right so t == range.hi resolves to this
  // piece rather than falling in a crack.
  auto it = std::lower_bound(
      stored_.begin(), stored_.end(), t,
      [](const Stored& s, double value) { return s.range.hi < value; });
  if (it == stored_.end()) return static_cast<size_t>(-1);
  if (t >= it->range.lo && t <= it->range.hi) {
    return static_cast<size_t>(it - stored_.begin());
  }
  return static_cast<size_t>(-1);
}

Status PulseSumAvgAggregate::EmitWindows(double from, double to,
                                         SegmentBatch* out) {
  const double w = options_.window_seconds;
  if (to <= from) return Status::OK();

  // Breakpoints: tail switches stored segments at boundary + w. The head
  // segment is constant over [from, to) by construction (closes lie in
  // the newest segment's range). Only segments whose shifted boundaries
  // can fall in [from, to) matter — binary search the starting index so
  // the arrival cost is independent of the total stored population.
  auto first_it = std::lower_bound(
      stored_.begin(), stored_.end(), from - w,
      [](const Stored& s, double value) { return s.range.hi < value; });
  const size_t first = static_cast<size_t>(first_it - stored_.begin());
  std::vector<double> cuts = {from, to};
  for (size_t i = first; i < stored_.size(); ++i) {
    const Stored& s = stored_[i];
    if (s.range.lo + w >= to) break;
    const double b = s.range.lo + w;
    if (b > from) cuts.push_back(b);
    const double e = s.range.hi + w;
    if (e > from && e < to) cuts.push_back(e);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Prefix sums of full-segment integrals for the middle constant C.
  std::vector<double> prefix(stored_.size() + 1, 0.0);
  for (size_t i = 0; i < stored_.size(); ++i) {
    prefix[i + 1] = prefix[i] + stored_[i].full;
  }

  const size_t head_idx = stored_.size() - 1;
  const Stored& head = stored_.back();

  for (size_t c = 0; c + 1 < cuts.size(); ++c) {
    const double a = cuts[c];
    const double b = cuts[c + 1];
    const double mid = 0.5 * (a + b);
    const size_t tail_idx = FindStored(mid - w);
    if (tail_idx == static_cast<size_t>(-1)) continue;  // not covered
    const Stored& tail = stored_[tail_idx];

    metrics_.solves->Increment();
    Polynomial wf;
    if (tail_idx == head_idx) {
      // Window inside one segment (paper Eq. 2):
      // wf(t) = anti(t) - anti(t - w).
      wf = head.anti - head.anti.Shift(-w);
    } else {
      // Multi-segment window: head integral + constant C + tail integral
      // with (t - w)^i expanded by the binomial theorem.
      const Polynomial head_part =
          head.anti - Polynomial::Constant(head.anti.Evaluate(head.range.lo));
      const double c_mid = prefix[head_idx] - prefix[tail_idx + 1];
      const Polynomial tail_part =
          Polynomial::Constant(tail.anti.Evaluate(tail.range.hi)) -
          tail.anti.Shift(-w);
      wf = head_part + tail_part + Polynomial::Constant(c_mid);
    }
    if (options_.fn == AggFn::kAvg) {
      wf = wf * (1.0 / w);
    }

    Segment result;
    result.id = NextSegmentId();
    result.key = 0;
    result.range = Interval::ClosedOpen(a, b);
    result.set_attribute(options_.output_attribute, wf);
    std::vector<LineageEntry> causes;
    causes.reserve(head_idx - tail_idx + 1);
    for (size_t i = tail_idx; i <= head_idx; ++i) {
      causes.push_back(LineageEntry{0, stored_[i].input});
    }
    lineage_.Record(result.id, result.range, std::move(causes));
    out->push_back(std::move(result));
    metrics_.segments_out->Increment();
  }
  return Status::OK();
}

Status PulseSumAvgAggregate::Process(size_t port, const Segment& segment,
                                     SegmentBatch* out) {
  PULSE_CHECK(port == 0);
  metrics_.segments_in->Increment();
  PULSE_ASSIGN_OR_RETURN(Polynomial poly,
                         segment.attribute(options_.input_attribute));
  if (segment.range.IsEmpty()) return Status::OK();

  const double w = options_.window_seconds;
  if (!have_any_) {
    have_any_ = true;
    coverage_start_ = segment.range.lo;
    last_emit_ = segment.range.lo + w;
  } else if (!stored_.empty()) {
    const double prev_end = stored_.back().range.hi;
    if (segment.range.lo > prev_end + kGapTolerance) {
      // Coverage gap: windows spanning the gap are undefined; restart.
      stored_.clear();
      coverage_start_ = segment.range.lo;
      last_emit_ = segment.range.lo + w;
    } else if (segment.range.lo < prev_end) {
      // Update semantics: the newcomer overrides the overlap; truncate
      // the predecessor and refresh its cached integral.
      Stored& prev = stored_.back();
      prev.range.hi = segment.range.lo;
      prev.range.hi_open = true;
      if (prev.range.IsEmpty()) {
        stored_.pop_back();
      } else {
        prev.full = prev.anti.Evaluate(prev.range.hi) -
                    prev.anti.Evaluate(prev.range.lo);
      }
    }
  }

  Stored entry;
  entry.range = segment.range;
  entry.anti = poly.Antiderivative();
  entry.full = entry.anti.Evaluate(segment.range.hi) -
               entry.anti.Evaluate(segment.range.lo);
  entry.input = std::make_shared<const Segment>(segment);
  stored_.push_back(std::move(entry));

  // Emit the window functions this segment enables: closes in
  // [max(last_emit_, coverage_start_ + w), segment.range.hi).
  const double from = std::max(last_emit_, coverage_start_ + w);
  const double to = segment.range.hi;
  PULSE_RETURN_IF_ERROR(EmitWindows(from, to, out));
  last_emit_ = std::max(last_emit_, to);

  // Expire cached segments no future window can reach.
  const double horizon = last_emit_ - w;
  while (!stored_.empty() && stored_.front().range.hi < horizon) {
    stored_.pop_front();
  }
  lineage_.ExpireBefore(horizon);
  metrics_.state_size.Set(stored_.size());
  return Status::OK();
}

Result<std::vector<AllocatedBound>> PulseSumAvgAggregate::InvertBound(
    const Segment& output, const std::string& attribute, double margin,
    const SplitHeuristic& split) const {
  if (attribute != options_.output_attribute) {
    return Status::InvalidArgument("unknown aggregate output attribute '" +
                                   attribute + "'");
  }
  // avg is 1-Lipschitz in the sup norm over the window: if EVERY input
  // deviates by at most d, the average deviates by at most d — so each
  // causing segment receives the full margin (no division across causes;
  // the sup-norm argument is sound regardless of correlation). sum scales
  // a uniform deviation by the window length, hence margin / w each.
  const double base = options_.fn == AggFn::kAvg
                          ? margin
                          : margin / options_.window_seconds;
  const std::vector<LineageEntry>* causes = lineage_.Lookup(output.id);
  if (causes == nullptr) {
    return Status::NotFound("no lineage for output segment " +
                            std::to_string(output.id));
  }
  (void)split;  // sup-norm allocation needs no apportioning heuristic
  std::vector<AllocatedBound> out;
  out.reserve(causes->size());
  for (const LineageEntry& e : *causes) {
    out.push_back(AllocatedBound{e.input->key, options_.input_attribute,
                                 base, e.port, e.input->id});
  }
  return out;
}

Result<std::unique_ptr<PulseOperator>> MakePulseAggregate(
    std::string name, PulseAggregateOptions options) {
  switch (options.fn) {
    case AggFn::kMin:
    case AggFn::kMax:
      return std::unique_ptr<PulseOperator>(
          new PulseMinMaxAggregate(std::move(name), std::move(options)));
    case AggFn::kSum:
    case AggFn::kAvg:
      return std::unique_ptr<PulseOperator>(
          new PulseSumAvgAggregate(std::move(name), std::move(options)));
    case AggFn::kCount:
      return Status::Unimplemented(
          "count is frequency-based and has no continuous-time form "
          "(paper Section III-B, Transformation Limitations)");
  }
  return Status::Internal("unknown aggregate function");
}

}  // namespace pulse
