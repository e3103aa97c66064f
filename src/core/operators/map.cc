#include "core/operators/map.h"

#include <memory>
#include <set>

#include "core/operators/filter.h"
#include "util/logging.h"

namespace pulse {

ComputedAttr ComputedAttr::Difference(std::string name, AttrRef a,
                                      AttrRef b) {
  ComputedAttr c;
  c.kind = Kind::kDifference;
  c.name = std::move(name);
  c.a = std::move(a);
  c.b = std::move(b);
  return c;
}

ComputedAttr ComputedAttr::Distance2(std::string name, AttrRef x1,
                                     AttrRef y1, AttrRef x2, AttrRef y2) {
  ComputedAttr c;
  c.kind = Kind::kDistance2;
  c.name = std::move(name);
  c.x1 = std::move(x1);
  c.y1 = std::move(y1);
  c.x2 = std::move(x2);
  c.y2 = std::move(y2);
  return c;
}

Result<Polynomial> ComputedAttr::BuildPolynomial(
    const AttrResolver& resolver) const {
  if (kind == Kind::kDifference) {
    PULSE_ASSIGN_OR_RETURN(Polynomial pa, resolver(a));
    PULSE_ASSIGN_OR_RETURN(Polynomial pb, resolver(b));
    return pa - pb;
  }
  PULSE_ASSIGN_OR_RETURN(Polynomial px1, resolver(x1));
  PULSE_ASSIGN_OR_RETURN(Polynomial py1, resolver(y1));
  PULSE_ASSIGN_OR_RETURN(Polynomial px2, resolver(x2));
  PULSE_ASSIGN_OR_RETURN(Polynomial py2, resolver(y2));
  const Polynomial dx = px1 - px2;
  const Polynomial dy = py1 - py2;
  return dx * dx + dy * dy;
}

Result<double> ComputedAttr::EvaluateValues(
    const Predicate::ValueResolver& resolver) const {
  if (kind == Kind::kDifference) {
    PULSE_ASSIGN_OR_RETURN(double va, resolver(a));
    PULSE_ASSIGN_OR_RETURN(double vb, resolver(b));
    return va - vb;
  }
  PULSE_ASSIGN_OR_RETURN(double vx1, resolver(x1));
  PULSE_ASSIGN_OR_RETURN(double vy1, resolver(y1));
  PULSE_ASSIGN_OR_RETURN(double vx2, resolver(x2));
  PULSE_ASSIGN_OR_RETURN(double vy2, resolver(y2));
  return (vx1 - vx2) * (vx1 - vx2) + (vy1 - vy2) * (vy1 - vy2);
}

PulseMap::PulseMap(std::string name, std::vector<ComputedAttr> outputs,
                   bool keep_inputs)
    : PulseOperator(std::move(name)),
      outputs_(std::move(outputs)),
      keep_inputs_(keep_inputs) {}

Result<Segment> PulseMap::Apply(const Segment& segment) const {
  const AttrResolver resolver = MakeUnaryResolver(segment);
  Segment result = segment;
  if (!keep_inputs_) result.attributes.clear();
  for (const ComputedAttr& attr : outputs_) {
    PULSE_ASSIGN_OR_RETURN(Polynomial poly, attr.BuildPolynomial(resolver));
    result.set_attribute(attr.name, std::move(poly));
  }
  return result;
}

Status PulseMap::Process(size_t port, const Segment& segment,
                         SegmentBatch* out) {
  PULSE_CHECK(port == 0);
  metrics_.segments_in->Increment();
  PULSE_ASSIGN_OR_RETURN(Segment result, Apply(segment));
  result.id = NextSegmentId();
  lineage_.Record(result.id, result.range,
                  {LineageEntry{0, std::make_shared<const Segment>(segment)}});
  out->push_back(std::move(result));
  metrics_.segments_out->Increment();
  return Status::OK();
}

Result<std::vector<AllocatedBound>> PulseMap::InvertBound(
    const Segment& output, const std::string& attribute, double margin,
    const SplitHeuristic& split) const {
  const std::vector<LineageEntry>* causes = lineage_.Lookup(output.id);
  if (causes == nullptr) {
    return Status::NotFound("no lineage for output segment " +
                            std::to_string(output.id));
  }
  // Which input attributes does the requested output depend on?
  //  - passthrough attribute: itself (identity, 1-Lipschitz).
  //  - difference: a and b, each 1-Lipschitz; the margin splits in two.
  //  - distance2: locally Lipschitz; conservatively split across the four
  //    coordinates with the gradient handled by the heuristic weighting.
  std::set<std::string> deps;
  double lipschitz_share = 1.0;
  for (const ComputedAttr& ca : outputs_) {
    if (ca.name != attribute) continue;
    if (ca.kind == ComputedAttr::Kind::kDifference) {
      deps = {ca.a.name, ca.b.name};
      lipschitz_share = 0.5;  // |d(a-b)| <= |da| + |db|
    } else {
      deps = {ca.x1.name, ca.y1.name, ca.x2.name, ca.y2.name};
      lipschitz_share = 0.25;
    }
    break;
  }
  if (deps.empty()) deps = {attribute};  // passthrough

  std::vector<const Segment*> inputs;
  for (const LineageEntry& e : *causes) inputs.push_back(e.input.get());

  std::vector<AllocatedBound> out;
  for (const std::string& dep : deps) {
    SplitContext ctx;
    ctx.output = &output;
    ctx.attribute = attribute;
    ctx.margin = margin * lipschitz_share;
    ctx.inputs = inputs;
    ctx.input_attribute = dep;
    ctx.num_dependencies = 1;  // Lipschitz share already applied
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

}  // namespace pulse
