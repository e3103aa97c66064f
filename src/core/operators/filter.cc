#include "core/operators/filter.h"

#include <memory>
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
  metrics_.segments_in->Increment();
  metrics_.solves->Increment();
  // One system per segment, solved recursively on the pushing thread:
  // a one-task batch would pay the batched solver's fixed cost for no
  // lane sharing. One warm scratch serves every Process call.
  static thread_local SolveScratch scratch;
  PULSE_RETURN_IF_ERROR(predicate_.SolveInto(MakeUnaryResolver(segment),
                                             segment.range, &scratch,
                                             &solution_));
  // Every output of this input shares one copy of it as its cause.
  std::shared_ptr<const Segment> cause;
  for (const Interval& iv : solution_.intervals()) {
    if (cause == nullptr) cause = std::make_shared<const Segment>(segment);
    Segment result = segment;
    result.id = NextSegmentId();
    result.range = iv;
    lineage_.Record(result.id, iv, {LineageEntry{0, cause}});
    out->push_back(std::move(result));
    metrics_.segments_out->Increment();
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
  for (const LineageEntry& e : *causes) inputs.push_back(e.input.get());

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
      allocs[i].segment_id = (*causes)[i].input->id;
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
