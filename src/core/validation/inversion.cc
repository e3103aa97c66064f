#include "core/validation/inversion.h"

#include "util/logging.h"

namespace pulse {

QueryInverter::QueryInverter(const PulsePlan* plan,
                             std::shared_ptr<const SplitHeuristic> split)
    : plan_(plan), split_(std::move(split)) {
  PULSE_CHECK(plan_ != nullptr);
  if (split_ == nullptr) split_ = std::make_shared<EquiSplit>();
}

Status QueryInverter::InvertForOutput(PulsePlan::NodeId sink,
                                      const Segment& output,
                                      const BoundSpec& spec,
                                      BoundRegistry* registry) {
  // Relative bounds reference the result's magnitude: evaluate the output
  // model at the middle of its validity range.
  double reference = 0.0;
  if (spec.relative) {
    PULSE_ASSIGN_OR_RETURN(
        reference,
        output.EvaluateAttribute(spec.attribute,
                                 0.5 * (output.range.lo + output.range.hi)));
  }
  const double margin = spec.MarginFor(reference);
  return InvertAtNode(sink, output, spec.attribute, margin, registry, 0);
}

Status QueryInverter::InvertAtNode(PulsePlan::NodeId node,
                                   const Segment& output,
                                   const std::string& attribute,
                                   double margin, BoundRegistry* registry,
                                   int depth) {
  if (depth > 64) {
    return Status::Internal("bound inversion recursion too deep");
  }
  PulseOperator* op = plan_->node(node);
  PULSE_ASSIGN_OR_RETURN(
      std::vector<AllocatedBound> allocs,
      op->InvertBound(output, attribute, margin, *split_));
  ++inversions_;

  // Allocations that reach a plan source are enforceable input bounds.
  // The rest resolve their segment id back to the causing input segment
  // so the walk can continue into the upstream producer. Causes are few
  // and only non-source allocations search them.
  const std::vector<LineageEntry>* causes = op->LookupCauses(output);
  for (const AllocatedBound& ab : allocs) {
    const std::optional<PulsePlan::NodeId> upstream =
        plan_->UpstreamOf(node, ab.port);
    const Segment* cause = nullptr;
    if (upstream.has_value() && causes != nullptr) {
      for (const LineageEntry& e : *causes) {
        if (e.input->id == ab.segment_id) {
          cause = e.input.get();
          break;
        }
      }
    }
    if (cause == nullptr) {
      // A plan source, or lineage for the intermediate segment expired:
      // register a source-level bound keyed by entity (conservative in
      // the second case).
      registry->Set(ab.key, ab.attribute, ab.margin);
      continue;
    }
    PULSE_RETURN_IF_ERROR(InvertAtNode(*upstream, *cause, ab.attribute,
                                       ab.margin, registry, depth + 1));
  }
  return Status::OK();
}

}  // namespace pulse
