#ifndef PULSE_MATH_ROOTS_H_
#define PULSE_MATH_ROOTS_H_

#include <functional>
#include <vector>

#include "math/interval_set.h"
#include "math/polynomial.h"
#include "util/result.h"

namespace pulse {

/// Comparison operators appearing in predicates (paper Section III-A:
/// "<, <=, =, !=, >=, >").
enum class CmpOp { kLt, kLe, kEq, kNe, kGe, kGt };

/// SQL-ish spelling: "<", "<=", "=", "<>", ">=", ">".
const char* CmpOpToString(CmpOp op);

/// The operator R' such that (x R y) == (y R' x). kEq/kNe are symmetric.
CmpOp FlipCmpOp(CmpOp op);

/// The operator !R: negation of the comparison.
CmpOp NegateCmpOp(CmpOp op);

/// True when `op` admits equality (kLe, kGe, kEq).
bool CmpOpIncludesEquality(CmpOp op);

/// Absolute tolerance used to deduplicate and converge roots.
inline constexpr double kRootTolerance = 1e-10;

/// Caller-provided scratch for the root-finding / comparison-solving hot
/// path. All temporary buffers (Sturm chain, root lists, sign-test cells)
/// live here so repeated solves reuse warm storage instead of allocating
/// (docs/PERFORMANCE.md). A scratch is single-threaded state: solvers
/// keep one per thread (thread_local in SolveSystemsInto).
struct RootScratch {
  // Reused Sturm chain; entries beyond the current chain keep their
  // coefficient buffers warm.
  std::vector<Polynomial> sturm;
  // Root accumulator for FindRealRootsInto.
  std::vector<double> roots;
  // Sign-test cut points (domain endpoints + interior roots).
  std::vector<double> cuts;
  // Candidate solution intervals before normalization.
  std::vector<Interval> cells;
  // Temporary buffer for IntervalSet::IntersectWith at solver call sites.
  std::vector<Interval> interval_scratch;
  // Scratch set for complement-based paths (kNe).
  IntervalSet set_scratch;
  // Polynomial temporaries for square-free reduction and division.
  Polynomial square_free;
  Polynomial derivative;
  Polynomial quot;
  Polynomial rem;
};

/// All real roots of p in the closed interval [lo, hi], ascending and
/// deduplicated to kRootTolerance. Multiple roots are reported once
/// (the polynomial is made square-free before isolation). The zero
/// polynomial yields no roots (callers handle the everywhere-zero case).
/// Degree <= 3 takes the closed forms; higher degrees take Sturm
/// isolation, then Brent's method in each bracket (plain bisection if
/// Brent fails).
std::vector<double> FindRealRoots(const Polynomial& p, double lo, double hi);

/// Scratch form of FindRealRoots: leaves the roots in scratch->roots
/// (cleared first). Degree <= 3 dispatches to closed forms before any
/// Sturm machinery is touched; no allocation happens once the scratch is
/// warm and the polynomial fits the inline buffer.
void FindRealRootsInto(const Polynomial& p, double lo, double hi,
                       RootScratch* scratch);

/// Brent's method (Brent 1973, the paper's cited solver) on a bracketing
/// interval: requires sign(f(a)) != sign(f(b)). Combines bisection, secant
/// and inverse quadratic interpolation.
Result<double> BrentRoot(const std::function<double(double)>& f, double a,
                         double b, double tol = kRootTolerance,
                         int max_iter = 128);

/// Polynomial long division: num = quot * den + rem, deg(rem) < deg(den).
/// `den` must be non-zero.
void DividePolynomials(const Polynomial& num, const Polynomial& den,
                       Polynomial* quot, Polynomial* rem);

/// Greatest common divisor by the Euclidean algorithm (monic-normalized).
Polynomial PolynomialGcd(const Polynomial& a, const Polynomial& b);

/// Sturm sequence of p: p0 = p, p1 = p', p_{k+1} = -rem(p_{k-1}, p_k).
std::vector<Polynomial> SturmSequence(const Polynomial& p);

/// Scratch form: builds the chain into scratch->sturm, reusing the
/// vector and each entry's coefficient storage across calls.
void SturmSequenceInto(const Polynomial& p, RootScratch* scratch);

/// Number of distinct real roots of (square-free) p in (a, b], via Sturm
/// sign-change counting.
int CountRootsInInterval(const std::vector<Polynomial>& sturm, double a,
                         double b);

/// Solves the scalar comparison p(t) R 0 over `domain`, returning the set
/// of times where the predicate holds. This is one row of the paper's
/// simultaneous equation system (Eq. 1): root finding plus sign tests
/// yields a set of time ranges (Section III-A). Equality rows produce
/// point intervals; strict inequalities produce open boundaries.
IntervalSet SolveComparison(const Polynomial& p, CmpOp op,
                            const Interval& domain);

/// Scratch form of SolveComparison: writes the solution into *out,
/// reusing both the scratch buffers and out's interval storage.
void SolveComparisonInto(const Polynomial& p, CmpOp op,
                         const Interval& domain, RootScratch* scratch,
                         IntervalSet* out);

}  // namespace pulse

#endif  // PULSE_MATH_ROOTS_H_
