#include "core/operators/filter.h"

#include <set>

#include "util/logging.h"

namespace pulse {

AttrResolver MakeUnaryResolver(const Segment& segment) {
  return [&segment](const AttrRef& ref) -> Result<Polynomial> {
    if (ref.side != Side::kLeft) {
      return Status::InvalidArgument(
          "unary operator predicate references right side");
    }
    return segment.attribute(ref.name);
  };
}

PulseFilter::PulseFilter(std::string name, Predicate predicate)
    : PulseOperator(std::move(name)), predicate_(std::move(predicate)) {}

Status PulseFilter::Process(size_t port, const Segment& segment,
                            SegmentBatch* out) {
  PULSE_CHECK(port == 0);
  ++metrics_.segments_in;
  ++metrics_.solves;
  const AttrResolver resolver = MakeUnaryResolver(segment);
  IntervalSet tree_solution;
  const IntervalSet* solution = &tree_solution;
  if (predicate_.IsConjunctive()) {
    // Conjunctions map onto one equation system and route through the
    // batched solver (ISSUE 7): rows of equal degree share SIMD lanes,
    // and the solution is identical to the recursive per-term solve —
    // each row's time ranges are already clipped to the segment range,
    // so intersecting them in row order matches intersecting them under
    // the domain accumulator.
    PULSE_RETURN_IF_ERROR(
        predicate_.BuildSystemInto(resolver, &task_scratch_.system));
    task_scratch_.domain = segment.range;
    SolveSystemsInto(&task_scratch_, 1, &solution_scratch_);
    solution = &solution_scratch_[0];
  } else {
    // Boolean trees solve recursively on the pushing thread; one warm
    // scratch serves every Process call.
    static thread_local SolveScratch scratch;
    PULSE_RETURN_IF_ERROR(predicate_.SolveInto(resolver, segment.range,
                                               &scratch, &tree_solution));
  }
  for (const Interval& iv : solution->intervals()) {
    Segment result = segment;
    result.id = NextSegmentId();
    result.range = iv;
    lineage_.Record(result.id, iv, {LineageEntry{0, segment}});
    out->push_back(std::move(result));
    ++metrics_.segments_out;
  }
  return Status::OK();
}

Result<std::vector<AllocatedBound>> PulseFilter::InvertBound(
    const Segment& output, const std::string& attribute, double margin,
    const SplitHeuristic& split) const {
  const std::vector<LineageEntry>* causes = lineage_.Lookup(output.id);
  if (causes == nullptr) {
    return Status::NotFound("no lineage for output segment " +
                            std::to_string(output.id));
  }
  // Dependencies D(o) = translations ∪ inferences: the requested attribute
  // itself (filters pass attributes through unchanged) plus every
  // predicate attribute the result is constrained by (Section IV-B).
  std::set<std::string> deps = {attribute};
  std::vector<AttrRef> refs;
  predicate_.CollectAttributes(&refs);
  for (const AttrRef& ref : refs) deps.insert(ref.name);

  std::vector<const Segment*> inputs;
  inputs.reserve(causes->size());
  for (const LineageEntry& e : *causes) inputs.push_back(&e.input);

  std::vector<AllocatedBound> out;
  for (const std::string& dep : deps) {
    SplitContext ctx;
    ctx.output = &output;
    ctx.attribute = attribute;
    ctx.margin = margin;
    ctx.inputs = inputs;
    ctx.input_attribute = dep;
    ctx.num_dependencies = deps.size();
    PULSE_ASSIGN_OR_RETURN(std::vector<AllocatedBound> allocs,
                           split.Apportion(ctx));
    for (size_t i = 0; i < allocs.size(); ++i) {
      allocs[i].port = (*causes)[i].port;
      allocs[i].segment_id = (*causes)[i].input.id;
      out.push_back(std::move(allocs[i]));
    }
  }
  return out;
}

Result<double> PulseFilter::ComputeSlack(const Segment& segment) const {
  if (!predicate_.IsConjunctive()) {
    // No single equation system exists; force revalidation.
    return 0.0;
  }
  const AttrResolver resolver = MakeUnaryResolver(segment);
  PULSE_ASSIGN_OR_RETURN(EquationSystem system,
                         predicate_.BuildSystem(resolver));
  return system.Slack(segment.range);
}

}  // namespace pulse
