#ifndef PULSE_CORE_PREDICATE_H_
#define PULSE_CORE_PREDICATE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/equation_system.h"
#include "math/interval_set.h"
#include "math/polynomial.h"
#include "math/roots.h"
#include "util/result.h"

namespace pulse {


/// Which input of an operator an attribute reference addresses. Unary
/// operators use kLeft only; joins use both ("R.x" vs "S.x").
enum class Side { kLeft, kRight };

/// Reference to a modeled attribute on one input.
struct AttrRef {
  Side side = Side::kLeft;
  std::string name;

  static AttrRef Left(std::string name) {
    return AttrRef{Side::kLeft, std::move(name)};
  }
  static AttrRef Right(std::string name) {
    return AttrRef{Side::kRight, std::move(name)};
  }

  std::string ToString() const {
    return std::string(side == Side::kLeft ? "L." : "R.") + name;
  }
};

/// Right-hand side of a simple comparison: attribute or constant.
struct Operand {
  enum class Kind { kAttribute, kConstant };
  Kind kind = Kind::kConstant;
  AttrRef attr;
  double constant = 0.0;

  static Operand Attribute(AttrRef ref) {
    Operand o;
    o.kind = Kind::kAttribute;
    o.attr = std::move(ref);
    return o;
  }
  static Operand Constant(double v) {
    Operand o;
    o.kind = Kind::kConstant;
    o.constant = v;
    return o;
  }
};

/// An atomic predicate term.
///
/// kSimple covers the paper's canonical form x R y (attribute vs attribute
/// or constant). kDistance2 covers the moving-object proximity pattern
/// sqrt((x1-x2)^2 + (y1-y2)^2) R c, rewritten polynomially as
/// (x1-x2)^2 + (y1-y2)^2 R c^2 (valid since both sides are non-negative
/// and squaring is monotone there) — the collision/following queries of
/// the paper's introduction and AIS evaluation.
struct ComparisonTerm {
  enum class Kind { kSimple, kDistance2 };
  Kind kind = Kind::kSimple;
  CmpOp op = CmpOp::kEq;

  // kSimple:
  AttrRef lhs;
  Operand rhs;

  // kDistance2: distance between (x1, y1) and (x2, y2) compared to
  // `threshold`.
  AttrRef x1, y1, x2, y2;
  double threshold = 0.0;

  static ComparisonTerm Simple(AttrRef lhs, CmpOp op, Operand rhs);
  static ComparisonTerm Distance2(AttrRef x1, AttrRef y1, AttrRef x2,
                                  AttrRef y2, CmpOp op, double threshold);

  std::string ToString() const;
};

/// Resolves an attribute reference to its polynomial model within the
/// current evaluation context (i.e. the segment(s) an operator is
/// processing).
using AttrResolver = std::function<Result<Polynomial>(const AttrRef&)>;

/// A boolean predicate over modeled attributes: comparisons composed with
/// AND / OR / NOT. Conjunctions map 1:1 onto simultaneous equation
/// systems; general boolean structure is applied to the per-term solution
/// time ranges (paper Section III-A: "we apply the structure of the
/// boolean operators to the solution time ranges").
class Predicate {
 public:
  enum class Kind { kComparison, kAnd, kOr, kNot };

  /// Leaf term.
  static Predicate Comparison(ComparisonTerm term);
  static Predicate And(std::vector<Predicate> children);
  static Predicate Or(std::vector<Predicate> children);
  static Predicate Not(Predicate child);

  Kind kind() const { return kind_; }
  const ComparisonTerm& term() const { return term_; }
  const std::vector<Predicate>& children() const { return children_; }

  /// True when the tree is a pure conjunction of comparisons, i.e. maps
  /// onto a single simultaneous equation system (paper Eq. 1).
  bool IsConjunctive() const;

  /// Builds the equation system for a conjunctive predicate. Fails with
  /// FailedPrecondition on non-conjunctive trees.
  Result<EquationSystem> BuildSystem(const AttrResolver& resolver) const;

  /// Buffer-reusing form of BuildSystem: clears *out (keeping its row
  /// capacity) and appends the rows directly — no per-call row-vector
  /// allocation once the reused system is warm (the join's per-pair hot
  /// path).
  Status BuildSystemInto(const AttrResolver& resolver,
                         EquationSystem* out) const;

  /// Builds the difference equation for one comparison term.
  static Result<DifferenceEquation> BuildRow(const ComparisonTerm& term,
                                             const AttrResolver& resolver);

  /// Full solve: time ranges within `domain` where the predicate holds.
  Result<IntervalSet> Solve(const AttrResolver& resolver,
                            const Interval& domain) const;

  /// Scratch form of Solve: writes into *out, reusing scratch buffers.
  Status SolveInto(const AttrResolver& resolver, const Interval& domain,
                   SolveScratch* scratch, IntervalSet* out) const;

  /// Collects every attribute reference in the tree (the inversion
  /// machinery's "inferences": attributes constrained by predicates,
  /// Section IV-B).
  void CollectAttributes(std::vector<AttrRef>* out) const;

  /// Resolves an attribute reference to a concrete value (discrete
  /// evaluation: baseline engine predicates and result cross-checks).
  using ValueResolver = std::function<Result<double>(const AttrRef&)>;

  /// Evaluates the predicate on concrete attribute values.
  Result<bool> EvaluateOnValues(const ValueResolver& resolver) const;

  std::string ToString() const;

 private:
  // Recursive worker of BuildSystemInto: appends this subtree's rows.
  Status AppendSystemRows(const AttrResolver& resolver,
                          EquationSystem* out) const;

  Kind kind_ = Kind::kComparison;
  ComparisonTerm term_;
  std::vector<Predicate> children_;
};

}  // namespace pulse

#endif  // PULSE_CORE_PREDICATE_H_
