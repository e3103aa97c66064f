#include "core/predicate.h"

#include <sstream>
#include <utility>


namespace pulse {

ComparisonTerm ComparisonTerm::Simple(AttrRef lhs, CmpOp op, Operand rhs) {
  ComparisonTerm t;
  t.kind = Kind::kSimple;
  t.lhs = std::move(lhs);
  t.op = op;
  t.rhs = std::move(rhs);
  return t;
}

ComparisonTerm ComparisonTerm::Distance2(AttrRef x1, AttrRef y1, AttrRef x2,
                                         AttrRef y2, CmpOp op,
                                         double threshold) {
  ComparisonTerm t;
  t.kind = Kind::kDistance2;
  t.x1 = std::move(x1);
  t.y1 = std::move(y1);
  t.x2 = std::move(x2);
  t.y2 = std::move(y2);
  t.op = op;
  t.threshold = threshold;
  return t;
}

std::string ComparisonTerm::ToString() const {
  std::ostringstream os;
  if (kind == Kind::kSimple) {
    os << lhs.ToString() << " " << CmpOpToString(op) << " ";
    if (rhs.kind == Operand::Kind::kAttribute) {
      os << rhs.attr.ToString();
    } else {
      os << rhs.constant;
    }
  } else {
    os << "dist((" << x1.ToString() << "," << y1.ToString() << "),("
       << x2.ToString() << "," << y2.ToString() << ")) "
       << CmpOpToString(op) << " " << threshold;
  }
  return os.str();
}

Predicate Predicate::Comparison(ComparisonTerm term) {
  Predicate p;
  p.kind_ = Kind::kComparison;
  p.term_ = std::move(term);
  return p;
}

Predicate Predicate::And(std::vector<Predicate> children) {
  Predicate p;
  p.kind_ = Kind::kAnd;
  p.children_ = std::move(children);
  return p;
}

Predicate Predicate::Or(std::vector<Predicate> children) {
  Predicate p;
  p.kind_ = Kind::kOr;
  p.children_ = std::move(children);
  return p;
}

Predicate Predicate::Not(Predicate child) {
  Predicate p;
  p.kind_ = Kind::kNot;
  p.children_.push_back(std::move(child));
  return p;
}

bool Predicate::IsConjunctive() const {
  if (kind_ == Kind::kComparison) return true;
  if (kind_ != Kind::kAnd) return false;
  for (const Predicate& c : children_) {
    if (!c.IsConjunctive()) return false;
  }
  return true;
}

Result<DifferenceEquation> Predicate::BuildRow(const ComparisonTerm& term,
                                               const AttrResolver& resolver) {
  if (term.kind == ComparisonTerm::Kind::kSimple) {
    PULSE_ASSIGN_OR_RETURN(Polynomial lhs, resolver(term.lhs));
    Polynomial rhs;
    if (term.rhs.kind == Operand::Kind::kAttribute) {
      PULSE_ASSIGN_OR_RETURN(rhs, resolver(term.rhs.attr));
    } else {
      rhs = Polynomial::Constant(term.rhs.constant);
    }
    return MakeDifferenceEquation(std::move(lhs), term.op, rhs);
  }
  // Distance term: (x1-x2)^2 + (y1-y2)^2 - c^2 R 0, built with fused
  // in-place ops — inline SBO storage end to end for degree <= 3 models.
  PULSE_ASSIGN_OR_RETURN(Polynomial dx, resolver(term.x1));
  PULSE_ASSIGN_OR_RETURN(Polynomial x2, resolver(term.x2));
  dx.SubInPlace(x2);
  PULSE_ASSIGN_OR_RETURN(Polynomial dy, resolver(term.y1));
  PULSE_ASSIGN_OR_RETURN(Polynomial y2, resolver(term.y2));
  dy.SubInPlace(y2);
  Polynomial diff;
  Polynomial::Mul(dx, dx, &diff);
  Polynomial dy2;
  Polynomial::Mul(dy, dy, &dy2);
  diff.AddInPlace(dy2);
  diff.SubInPlace(Polynomial::Constant(term.threshold * term.threshold));
  return DifferenceEquation{std::move(diff), term.op};
}

Result<EquationSystem> Predicate::BuildSystem(
    const AttrResolver& resolver) const {
  EquationSystem system;
  PULSE_RETURN_IF_ERROR(BuildSystemInto(resolver, &system));
  return system;
}

Status Predicate::BuildSystemInto(const AttrResolver& resolver,
                                  EquationSystem* out) const {
  if (!IsConjunctive()) {
    return Status::FailedPrecondition(
        "BuildSystem requires a conjunctive predicate");
  }
  out->Clear();
  return AppendSystemRows(resolver, out);
}

Status Predicate::AppendSystemRows(const AttrResolver& resolver,
                                   EquationSystem* out) const {
  if (kind_ == Kind::kComparison) {
    PULSE_ASSIGN_OR_RETURN(DifferenceEquation row,
                           BuildRow(term_, resolver));
    out->AddRow(std::move(row));
    return Status::OK();
  }
  for (const Predicate& c : children_) {
    PULSE_RETURN_IF_ERROR(c.AppendSystemRows(resolver, out));
  }
  return Status::OK();
}

Result<IntervalSet> Predicate::Solve(const AttrResolver& resolver,
                                     const Interval& domain) const {
  SolveScratch scratch;
  IntervalSet out;
  PULSE_RETURN_IF_ERROR(SolveInto(resolver, domain, &scratch, &out));
  return out;
}

Status Predicate::SolveInto(const AttrResolver& resolver,
                            const Interval& domain, SolveScratch* scratch,
                            IntervalSet* out) const {
  switch (kind_) {
    case Kind::kComparison: {
      PULSE_ASSIGN_OR_RETURN(DifferenceEquation row,
                             BuildRow(term_, resolver));
      SolveComparisonInto(row.diff, row.op, domain, &scratch->roots, out);
      return Status::OK();
    }
    case Kind::kAnd: {
      out->AssignInterval(domain);
      // Local accumulator per recursion level: child solves reuse the
      // shared scratch below this frame.
      IntervalSet sub;
      for (const Predicate& c : children_) {
        PULSE_RETURN_IF_ERROR(c.SolveInto(resolver, domain, scratch, &sub));
        out->IntersectWith(sub, &scratch->roots.interval_scratch);
        if (out->IsEmpty()) break;
      }
      return Status::OK();
    }
    case Kind::kOr: {
      out->Clear();
      IntervalSet sub;
      for (const Predicate& c : children_) {
        PULSE_RETURN_IF_ERROR(c.SolveInto(resolver, domain, scratch, &sub));
        out->UnionWith(sub);
      }
      return Status::OK();
    }
    case Kind::kNot: {
      IntervalSet sub;
      PULSE_RETURN_IF_ERROR(
          children_[0].SolveInto(resolver, domain, scratch, &sub));
      sub.ComplementInto(domain, out);
      return Status::OK();
    }
  }
  return Status::Internal("unknown predicate kind");
}

void Predicate::CollectAttributes(std::vector<AttrRef>* out) const {
  if (kind_ == Kind::kComparison) {
    if (term_.kind == ComparisonTerm::Kind::kSimple) {
      out->push_back(term_.lhs);
      if (term_.rhs.kind == Operand::Kind::kAttribute) {
        out->push_back(term_.rhs.attr);
      }
    } else {
      out->push_back(term_.x1);
      out->push_back(term_.y1);
      out->push_back(term_.x2);
      out->push_back(term_.y2);
    }
    return;
  }
  for (const Predicate& c : children_) c.CollectAttributes(out);
}

namespace {

bool CompareValues(double lhs, CmpOp op, double rhs) {
  switch (op) {
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
  }
  return false;
}

}  // namespace

Result<bool> Predicate::EvaluateOnValues(
    const ValueResolver& resolver) const {
  switch (kind_) {
    case Kind::kComparison: {
      if (term_.kind == ComparisonTerm::Kind::kSimple) {
        PULSE_ASSIGN_OR_RETURN(double lhs, resolver(term_.lhs));
        double rhs = term_.rhs.constant;
        if (term_.rhs.kind == Operand::Kind::kAttribute) {
          PULSE_ASSIGN_OR_RETURN(rhs, resolver(term_.rhs.attr));
        }
        return CompareValues(lhs, term_.op, rhs);
      }
      PULSE_ASSIGN_OR_RETURN(double x1, resolver(term_.x1));
      PULSE_ASSIGN_OR_RETURN(double y1, resolver(term_.y1));
      PULSE_ASSIGN_OR_RETURN(double x2, resolver(term_.x2));
      PULSE_ASSIGN_OR_RETURN(double y2, resolver(term_.y2));
      const double dist2 =
          (x1 - x2) * (x1 - x2) + (y1 - y2) * (y1 - y2);
      return CompareValues(dist2, term_.op,
                           term_.threshold * term_.threshold);
    }
    case Kind::kAnd: {
      for (const Predicate& c : children_) {
        PULSE_ASSIGN_OR_RETURN(bool v, c.EvaluateOnValues(resolver));
        if (!v) return false;
      }
      return true;
    }
    case Kind::kOr: {
      for (const Predicate& c : children_) {
        PULSE_ASSIGN_OR_RETURN(bool v, c.EvaluateOnValues(resolver));
        if (v) return true;
      }
      return false;
    }
    case Kind::kNot: {
      PULSE_ASSIGN_OR_RETURN(bool v,
                             children_[0].EvaluateOnValues(resolver));
      return !v;
    }
  }
  return Status::Internal("unknown predicate kind");
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kComparison:
      return term_.ToString();
    case Kind::kAnd:
    case Kind::kOr: {
      std::ostringstream os;
      os << "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) os << (kind_ == Kind::kAnd ? " AND " : " OR ");
        os << children_[i].ToString();
      }
      os << ")";
      return os.str();
    }
    case Kind::kNot:
      return "NOT " + children_[0].ToString();
  }
  return "?";
}

}  // namespace pulse
