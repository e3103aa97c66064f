#include "core/operators/join.h"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "obs/span.h"
#include "util/logging.h"

namespace pulse {

Key CombineKeys(Key left, Key right) {
  PULSE_CHECK(left >= 0 && left <= 0x7fffffff);
  PULSE_CHECK(right >= 0 && right <= 0x7fffffff);
  return (left << 32) | right;
}

void SplitKeys(Key combined, Key* left, Key* right) {
  *left = combined >> 32;
  *right = combined & 0x7fffffff;
}

AttrResolver MakeBinaryResolver(const Segment& left, const Segment& right) {
  return [&left, &right](const AttrRef& ref) -> Result<Polynomial> {
    const Segment& seg = (ref.side == Side::kLeft) ? left : right;
    return seg.attribute(ref.name);
  };
}

PulseJoin::PulseJoin(std::string name, Predicate predicate,
                     PulseJoinOptions options)
    : PulseOperator(std::move(name)),
      predicate_(std::move(predicate)),
      options_(std::move(options)) {
  PULSE_CHECK(options_.window_seconds > 0.0);
  PULSE_CHECK(!(options_.match_keys && options_.require_distinct_keys));
  CompilePredicate();
}

PulseJoin::SlotRef PulseJoin::SlotRefFor(const AttrRef& ref) {
  std::vector<std::string>& names =
      slot_names_[ref.side == Side::kLeft ? 0 : 1];
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == ref.name) return SlotRef{ref.side, i};
  }
  names.push_back(ref.name);
  return SlotRef{ref.side, names.size() - 1};
}

void PulseJoin::CompilePredicate() {
  if (!predicate_.IsConjunctive()) return;
  // Flatten in AppendSystemRows order: depth-first, children in order.
  auto flatten = [this](auto&& self, const Predicate& p) -> void {
    if (p.kind() == Predicate::Kind::kComparison) {
      const ComparisonTerm& t = p.term();
      CompiledRow row;
      row.kind = t.kind;
      row.op = t.op;
      if (t.kind == ComparisonTerm::Kind::kSimple) {
        row.lhs = SlotRefFor(t.lhs);
        if (t.rhs.kind == Operand::Kind::kAttribute) {
          row.rhs_is_attr = true;
          row.rhs = SlotRefFor(t.rhs.attr);
        } else {
          row.rhs_constant = t.rhs.constant;
        }
      } else {
        row.x1 = SlotRefFor(t.x1);
        row.y1 = SlotRefFor(t.y1);
        row.x2 = SlotRefFor(t.x2);
        row.y2 = SlotRefFor(t.y2);
        row.threshold = t.threshold;
      }
      compiled_rows_.push_back(std::move(row));
      return;
    }
    for (const Predicate& c : p.children()) self(self, c);
  };
  flatten(flatten, predicate_);
  compiled_ = true;
}

PulseJoin::ResolvedAttrs PulseJoin::Resolve(Side side,
                                            const Segment& segment) const {
  ResolvedAttrs r;
  const std::vector<std::string>& names =
      slot_names_[side == Side::kLeft ? 0 : 1];
  r.ptr.reserve(names.size());
  for (const std::string& name : names) {
    auto it = segment.attributes.find(name);
    if (it == segment.attributes.end()) return r;  // complete = false
    r.ptr.push_back(&it->second);
  }
  r.complete = true;
  return r;
}

void PulseJoin::BuildCompiledSystem(const ResolvedAttrs& left,
                                    const ResolvedAttrs& right,
                                    EquationSystem* out) const {
  out->Clear();
  auto poly = [&left, &right](const SlotRef& s) -> const Polynomial& {
    return *(s.side == Side::kLeft ? left : right).ptr[s.slot];
  };
  for (const CompiledRow& row : compiled_rows_) {
    if (row.kind == ComparisonTerm::Kind::kSimple) {
      Polynomial lhs = poly(row.lhs);
      if (row.rhs_is_attr) {
        out->AddRow(
            MakeDifferenceEquation(std::move(lhs), row.op, poly(row.rhs)));
      } else {
        out->AddRow(MakeDifferenceEquation(
            std::move(lhs), row.op, Polynomial::Constant(row.rhs_constant)));
      }
      continue;
    }
    // Distance term, same op sequence as Predicate::BuildRow:
    // (x1-x2)^2 + (y1-y2)^2 - c^2 R 0.
    Polynomial dx = poly(row.x1);
    dx.SubInPlace(poly(row.x2));
    Polynomial dy = poly(row.y1);
    dy.SubInPlace(poly(row.y2));
    Polynomial diff;
    Polynomial::Mul(dx, dx, &diff);
    Polynomial dy2;
    Polynomial::Mul(dy, dy, &dy2);
    diff.AddInPlace(dy2);
    diff.SubInPlace(Polynomial::Constant(row.threshold * row.threshold));
    out->AddRow(DifferenceEquation{std::move(diff), row.op});
  }
}

bool PulseJoin::KeysAdmissible(const Segment& a, const Segment& b) const {
  if (options_.match_keys && a.key != b.key) return false;
  if (options_.require_distinct_keys && a.key == b.key) return false;
  return true;
}

void PulseJoin::Expire(double now) {
  const double horizon = now - options_.window_seconds;
  for (std::deque<StoredSegment>* side : {&left_, &right_}) {
    while (!side->empty() && side->front().segment->range.hi < horizon) {
      side->pop_front();
    }
  }
  // The lineage sweep is linear in stored outputs: run it periodically.
  if (now - last_lineage_expire_ > options_.window_seconds / 16.0) {
    lineage_.ExpireBefore(horizon);
    last_lineage_expire_ = now;
  }
}

Segment PulseJoin::MakeJoined(const Segment& left, const Segment& right,
                              const Interval& valid) const {
  Segment out;
  out.key = CombineKeys(left.key, right.key);
  out.range = valid;
  for (const auto& [name, poly] : left.attributes) {
    out.attributes[options_.left_prefix + name] = poly;
  }
  for (const auto& [name, poly] : right.attributes) {
    out.attributes[options_.right_prefix + name] = poly;
  }
  for (const auto& [name, v] : left.unmodeled) {
    out.unmodeled[options_.left_prefix + name] = v;
  }
  for (const auto& [name, v] : right.unmodeled) {
    out.unmodeled[options_.right_prefix + name] = v;
  }
  out.unmodeled[options_.left_prefix + "key"] =
      static_cast<double>(left.key);
  out.unmodeled[options_.right_prefix + "key"] =
      static_cast<double>(right.key);
  return out;
}

void PulseJoin::CollectPairs(size_t port, const Segment& segment,
                             const ResolvedAttrs& probe,
                             std::vector<Pair>* pairs) const {
  for (const StoredSegment& partner : (port == 0) ? right_ : left_) {
    const Segment& stored = *partner.segment;
    if (!KeysAdmissible(segment, stored)) continue;
    Pair p = (port == 0) ? Pair{&segment, &stored, &probe, &partner.resolved,
                                &partner, Interval()}
                         : Pair{&stored, &segment, &partner.resolved, &probe,
                                &partner, Interval()};
    p.overlap = p.left->range.Intersect(p.right->range);
    if (p.overlap.IsEmpty()) continue;
    pairs->push_back(p);
  }
}

Status PulseJoin::MatchPartners(size_t port, const StoredSegment& arriving,
                                SegmentBatch* out) {
  std::vector<Pair>& pairs = pair_scratch_;
  pairs.clear();
  CollectPairs(port, *arriving.segment, arriving.resolved, &pairs);
  if (pairs.empty()) return Status::OK();
  metrics_.solves->Add(pairs.size());
  PULSE_SPAN("join/match_partners");

  // Each pair is an independent equation system. Conjunctive predicates
  // (the common case) go through the EquationSystem batch API; boolean
  // trees solve the full predicate per pair. Both keep solutions in pair
  // order. Task and solution buffers are operator members reused across
  // pushes (grown, never shrunk), so once warm the batch performs no
  // allocation.
  std::vector<IntervalSet>& solutions = solution_scratch_;
  if (predicate_.IsConjunctive()) {
    if (task_scratch_.size() < pairs.size()) {
      task_scratch_.resize(pairs.size());
    }
    for (size_t i = 0; i < pairs.size(); ++i) {
      const Pair& p = pairs[i];
      // Compiled fast path when both sides resolved every referenced
      // attribute; resolver path otherwise (identical rows and, when an
      // attribute is missing, identical error statuses).
      if (p.left_resolved->complete && p.right_resolved->complete) {
        BuildCompiledSystem(*p.left_resolved, *p.right_resolved,
                            &task_scratch_[i].system);
      } else {
        PULSE_RETURN_IF_ERROR(predicate_.BuildSystemInto(
            MakeBinaryResolver(*p.left, *p.right), &task_scratch_[i].system));
      }
      task_scratch_[i].domain = p.overlap;
    }
    SolveSystemsInto(task_scratch_.data(), pairs.size(), &solutions);
  } else {
    solutions.resize(pairs.size());
    // Shard workers run joins concurrently, so the scratch is per thread.
    static thread_local SolveScratch scratch;
    for (size_t i = 0; i < pairs.size(); ++i) {
      const Pair& p = pairs[i];
      const AttrResolver resolver = MakeBinaryResolver(*p.left, *p.right);
      PULSE_RETURN_IF_ERROR(
          predicate_.SolveInto(resolver, p.overlap, &scratch, &solutions[i]));
    }
  }

  // Emission in pair order fixes segment ids, lineage and output order.
  for (size_t i = 0; i < pairs.size(); ++i) {
    const std::shared_ptr<const Segment>& partner = pairs[i].partner->segment;
    const std::shared_ptr<const Segment>& left =
        port == 0 ? arriving.segment : partner;
    const std::shared_ptr<const Segment>& right =
        port == 0 ? partner : arriving.segment;
    for (const Interval& iv : solutions[i].intervals()) {
      Segment joined = MakeJoined(*left, *right, iv);
      joined.id = NextSegmentId();
      lineage_.Record(joined.id, iv,
                      {LineageEntry{0, left}, LineageEntry{1, right}});
      out->push_back(std::move(joined));
      metrics_.segments_out->Increment();
    }
  }
  return Status::OK();
}

Status PulseJoin::Process(size_t port, const Segment& segment,
                          SegmentBatch* out) {
  PULSE_CHECK(port < 2);
  metrics_.segments_in->Increment();
  latest_time_ = std::max(latest_time_, segment.range.lo);
  Expire(latest_time_);
  const Side side = (port == 0) ? Side::kLeft : Side::kRight;
  // The one copy of the arriving segment: it is matched, stored, and
  // cited by every output's lineage. The pointer table points into its
  // attribute map, which lives as long as the copy.
  StoredSegment arriving{std::make_shared<const Segment>(segment),
                         ResolvedAttrs()};
  if (compiled_) arriving.resolved = Resolve(side, *arriving.segment);
  PULSE_RETURN_IF_ERROR(MatchPartners(port, arriving, out));
  std::deque<StoredSegment>& own = (port == 0) ? left_ : right_;
  own.push_back(std::move(arriving));
  metrics_.state_size.Set(left_.size() + right_.size());
  return Status::OK();
}

Result<std::vector<AllocatedBound>> PulseJoin::InvertBound(
    const Segment& output, const std::string& attribute, double margin,
    const SplitHeuristic& split) const {
  const std::vector<LineageEntry>* causes = lineage_.Lookup(output.id);
  if (causes == nullptr) {
    return Status::NotFound("no lineage for output segment " +
                            std::to_string(output.id));
  }
  // Bound translation: strip the side prefix to find the input attribute
  // the output column aliases (Section IV-B, "bound translations").
  std::set<std::pair<size_t, std::string>> deps;
  if (attribute.rfind(options_.left_prefix, 0) == 0) {
    deps.emplace(0, attribute.substr(options_.left_prefix.size()));
  } else if (attribute.rfind(options_.right_prefix, 0) == 0) {
    deps.emplace(1, attribute.substr(options_.right_prefix.size()));
  } else {
    return Status::InvalidArgument("join output attribute '" + attribute +
                                   "' lacks a side prefix");
  }
  // Inferences: every predicate attribute constrains the result.
  std::vector<AttrRef> refs;
  predicate_.CollectAttributes(&refs);
  for (const AttrRef& ref : refs) {
    deps.emplace(ref.side == Side::kLeft ? 0 : 1, ref.name);
  }

  std::vector<AllocatedBound> out;
  for (const auto& [port, input_attr] : deps) {
    std::vector<const Segment*> inputs;
    std::vector<const LineageEntry*> entries;
    for (const LineageEntry& e : *causes) {
      if (e.port == port) {
        inputs.push_back(e.input.get());
        entries.push_back(&e);
      }
    }
    if (inputs.empty()) continue;
    SplitContext ctx;
    ctx.output = &output;
    ctx.attribute = attribute;
    ctx.margin = margin;
    ctx.inputs = inputs;
    ctx.input_attribute = input_attr;
    ctx.num_dependencies = deps.size();
    PULSE_ASSIGN_OR_RETURN(std::vector<AllocatedBound> allocs,
                           split.Apportion(ctx));
    for (size_t i = 0; i < allocs.size(); ++i) {
      allocs[i].port = entries[i]->port;
      allocs[i].segment_id = entries[i]->input->id;
      out.push_back(std::move(allocs[i]));
    }
  }
  return out;
}

Result<double> PulseJoin::ComputeSlack(size_t port,
                                       const Segment& segment) const {
  if (!predicate_.IsConjunctive()) return 0.0;
  const ResolvedAttrs unresolved;  // slack builds through the resolver
  std::vector<Pair> pairs;
  CollectPairs(port, segment, unresolved, &pairs);
  double slack = std::numeric_limits<double>::infinity();
  for (const Pair& p : pairs) {
    PULSE_ASSIGN_OR_RETURN(
        EquationSystem system,
        predicate_.BuildSystem(MakeBinaryResolver(*p.left, *p.right)));
    slack = std::min(slack, system.Slack(p.overlap));
  }
  return slack;
}

}  // namespace pulse
