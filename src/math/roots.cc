#include "math/roots.h"

#include <algorithm>
#include <cmath>

#include "math/roots_internal.h"
#include "util/logging.h"

namespace pulse {

namespace roots_internal {

namespace {
constexpr double kPi = 3.14159265358979323846;
}  // namespace

void DedupeRoots(std::vector<double>* roots) {
  std::sort(roots->begin(), roots->end());
  auto last = std::unique(roots->begin(), roots->end(),
                          [](double a, double b) {
                            return std::abs(a - b) <= kRootTolerance;
                          });
  roots->erase(last, roots->end());
}

void ClipRoots(double lo, double hi, std::vector<double>* roots) {
  size_t w = 0;
  for (double r : *roots) {
    if (r < lo - kRootTolerance || r > hi + kRootTolerance) continue;
    (*roots)[w++] = std::clamp(r, lo, hi);
  }
  roots->resize(w);
}

int LinearRoot(double c0, double c1, double* r) {
  r[0] = -c0 / c1;
  return 1;
}

int QuadraticRoots(double c0, double c1, double c2, double* r) {
  const double a = c2;
  const double b = c1;
  const double c = c0;
  const double disc = b * b - 4.0 * a * c;
  if (disc < 0.0) return 0;
  if (disc == 0.0) {
    r[0] = -b / (2.0 * a);
    return 1;
  }
  // Numerically stable quadratic formula (avoid cancellation).
  const double q = -0.5 * (b + std::copysign(std::sqrt(disc), b));
  r[0] = q / a;
  if (q != 0.0) {
    r[1] = c / q;
  } else {
    r[1] = 0.0;
  }
  return 2;
}

int CubicRoots(double c0, double c1, double c2, double c3, double* out) {
  // Cubic: normalize to t^3 + a2 t^2 + a1 t + a0, depress, then use the
  // trigonometric method (three real roots) or Cardano (one real root).
  const double inv = 1.0 / c3;
  const double a2 = c2 * inv;
  const double a1 = c1 * inv;
  const double a0 = c0 * inv;
  const double shift = a2 / 3.0;
  const double q = a1 - a2 * a2 / 3.0;
  const double r =
      2.0 * a2 * a2 * a2 / 27.0 - a2 * a1 / 3.0 + a0;
  const double disc = q * q * q / 27.0 + r * r / 4.0;
  if (disc > 0.0) {
    const double sq = std::sqrt(disc);
    const double u = std::cbrt(-r / 2.0 + sq);
    const double v = std::cbrt(-r / 2.0 - sq);
    out[0] = u + v - shift;
    return 1;
  }
  if (disc == 0.0) {
    if (r == 0.0 && q == 0.0) {
      out[0] = -shift;
      return 1;
    }
    const double u = std::cbrt(-r / 2.0);
    out[0] = 2.0 * u - shift;
    out[1] = -u - shift;
    return 2;
  }
  const double rho = std::sqrt(-q * q * q / 27.0);
  const double theta = std::acos(std::clamp(-r / (2.0 * rho), -1.0, 1.0));
  const double mag = 2.0 * std::sqrt(-q / 3.0);
  for (int k = 0; k < 3; ++k) {
    out[k] = mag * std::cos((theta + 2.0 * kPi * k) / 3.0) - shift;
  }
  return 3;
}

void ClosedFormRootsInto(const Polynomial& p, std::vector<double>* out) {
  const size_t d = p.degree();
  if (p.IsZero() || d == 0) return;
  double r[3];
  int n;
  if (d == 1) {
    n = LinearRoot(p.coeff(0), p.coeff(1), r);
  } else if (d == 2) {
    n = QuadraticRoots(p.coeff(0), p.coeff(1), p.coeff(2), r);
  } else {
    n = CubicRoots(p.coeff(0), p.coeff(1), p.coeff(2), p.coeff(3), r);
  }
  for (int i = 0; i < n; ++i) out->push_back(r[i]);
}

bool SolveComparisonTrivial(const Polynomial& p, CmpOp op,
                            const Interval& domain, IntervalSet* out) {
  if (domain.IsEmpty()) {
    out->Clear();
    return true;
  }
  // Everywhere-zero polynomial: predicate truth is constant in t.
  if (p.IsZero()) {
    if (op == CmpOp::kEq || op == CmpOp::kLe || op == CmpOp::kGe) {
      out->AssignInterval(domain);
    } else {
      out->Clear();
    }
    return true;
  }
  // Constant non-zero polynomial.
  if (p.degree() == 0) {
    const double v = p.coeff(0);
    const bool holds = (op == CmpOp::kLt && v < 0.0) ||
                       (op == CmpOp::kLe && v <= 0.0) ||
                       (op == CmpOp::kEq && v == 0.0) ||
                       (op == CmpOp::kNe && v != 0.0) ||
                       (op == CmpOp::kGe && v >= 0.0) ||
                       (op == CmpOp::kGt && v > 0.0);
    if (holds) {
      out->AssignInterval(domain);
    } else {
      out->Clear();
    }
    return true;
  }
  return false;
}

void AssembleEquality(const double* roots, size_t num_roots,
                      const Interval& domain, std::vector<Interval>* cells,
                      IntervalSet* out) {
  cells->clear();
  for (size_t i = 0; i < num_roots; ++i) {
    const double r = roots[i];
    if (domain.Contains(r)) cells->push_back(Interval::Point(r));
  }
  out->Assign(cells);
}

size_t BuildCuts(const double* roots, size_t num_roots,
                 const Interval& domain, std::vector<double>* cuts) {
  cuts->clear();
  cuts->push_back(domain.lo);
  for (size_t i = 0; i < num_roots; ++i) {
    const double r = roots[i];
    if (r > domain.lo && r < domain.hi) cuts->push_back(r);
  }
  cuts->push_back(domain.hi);
  size_t retained = 0;
  for (size_t i = 0; i + 1 < cuts->size(); ++i) {
    if ((*cuts)[i + 1] > (*cuts)[i]) ++retained;
  }
  return retained;
}

void AssembleInequality(const Polynomial& p, CmpOp op,
                        const Interval& domain, const double* roots,
                        size_t num_roots, const double* cuts,
                        size_t num_cuts, const double* mid_values,
                        std::vector<Interval>* cells_out, IntervalSet* out) {
  // Sign-test the open cells between consecutive roots.
  const bool want_negative = (op == CmpOp::kLt || op == CmpOp::kLe);
  const bool include_boundary = CmpOpIncludesEquality(op);
  std::vector<Interval>& cells = *cells_out;
  cells.clear();
  size_t mid_index = 0;
  for (size_t i = 0; i + 1 < num_cuts; ++i) {
    const double a = cuts[i];
    const double b = cuts[i + 1];
    if (b <= a) continue;
    double v;
    if (mid_values != nullptr) {
      v = mid_values[mid_index++];
    } else {
      const double mid = 0.5 * (a + b);
      v = p.Evaluate(mid);
    }
    const bool holds = want_negative ? (v < 0.0) : (v > 0.0);
    if (!holds) continue;
    Interval cell;
    cell.lo = a;
    cell.hi = b;
    // Interior cuts are roots: open for strict ops, closed otherwise.
    const bool a_is_domain = (i == 0);
    const bool b_is_domain = (i + 2 == num_cuts);
    cell.lo_open = a_is_domain ? domain.lo_open : !include_boundary;
    cell.hi_open = b_is_domain ? domain.hi_open : !include_boundary;
    cells.push_back(cell);
  }
  // Non-strict ops additionally admit boundary roots even when no adjacent
  // cell holds (e.g. tangency points of p <= 0 with p > 0 around them).
  if (include_boundary) {
    for (size_t i = 0; i < num_roots; ++i) {
      const double r = roots[i];
      if (domain.Contains(r)) cells.push_back(Interval::Point(r));
    }
  }
  out->Assign(&cells);
}

}  // namespace roots_internal

namespace {

// Plain bisection on a bracket with sign(f(a)) != sign(f(b)).
double Bisect(const Polynomial& p, double a, double b, double tol) {
  double fa = p.Evaluate(a);
  for (int i = 0; i < 200 && (b - a) > tol; ++i) {
    const double m = 0.5 * (a + b);
    const double fm = p.Evaluate(m);
    if (fm == 0.0) return m;
    if ((fa < 0.0) == (fm < 0.0)) {
      a = m;
      fa = fm;
    } else {
      b = m;
    }
  }
  return 0.5 * (a + b);
}

// Converges a bracketed root with Brent's method, falling back to plain
// bisection if Brent fails.
double ConvergeInBracket(const Polynomial& p, double a, double b) {
  Result<double> r =
      BrentRoot([&p](double t) { return p.Evaluate(t); }, a, b);
  if (r.ok()) return *r;
  return Bisect(p, a, b, kRootTolerance);
}

// Counts sign changes of the Sturm sequence evaluated at x.
int SturmSignChanges(const std::vector<Polynomial>& sturm, double x) {
  int changes = 0;
  int prev = 0;
  for (const Polynomial& q : sturm) {
    const double v = q.Evaluate(x);
    const int sign = (v > kRootTolerance) - (v < -kRootTolerance);
    if (sign == 0) continue;
    if (prev != 0 && sign != prev) ++changes;
    prev = sign;
  }
  return changes;
}

// Recursively isolates single-root brackets of square-free p in (lo, hi]
// and converges each.
void IsolateAndSolve(const Polynomial& p,
                     const std::vector<Polynomial>& sturm, double lo,
                     double hi, std::vector<double>* roots,
                     int depth = 0) {
  const int n = CountRootsInInterval(sturm, lo, hi);
  if (n == 0) return;
  if (hi - lo <= kRootTolerance || depth > 96) {
    roots->push_back(0.5 * (lo + hi));
    return;
  }
  if (n == 1) {
    const double flo = p.Evaluate(lo);
    const double fhi = p.Evaluate(hi);
    if ((flo < 0.0) != (fhi < 0.0)) {
      roots->push_back(ConvergeInBracket(p, lo, hi));
      return;
    }
    // Root of even local behaviour at an endpoint or a tangency inside:
    // keep subdividing until we either bracket by sign or collapse.
  }
  const double mid = 0.5 * (lo + hi);
  IsolateAndSolve(p, sturm, lo, mid, roots, depth + 1);
  IsolateAndSolve(p, sturm, mid, hi, roots, depth + 1);
}

}  // namespace

const char* CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kGt:
      return ">";
  }
  return "?";
}

CmpOp FlipCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGe:
      return CmpOp::kLe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kEq:
    case CmpOp::kNe:
      return op;
  }
  return op;
}

CmpOp NegateCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGe;
    case CmpOp::kLe:
      return CmpOp::kGt;
    case CmpOp::kEq:
      return CmpOp::kNe;
    case CmpOp::kNe:
      return CmpOp::kEq;
    case CmpOp::kGe:
      return CmpOp::kLt;
    case CmpOp::kGt:
      return CmpOp::kLe;
  }
  return op;
}

bool CmpOpIncludesEquality(CmpOp op) {
  return op == CmpOp::kLe || op == CmpOp::kGe || op == CmpOp::kEq;
}

void DividePolynomials(const Polynomial& num, const Polynomial& den,
                       Polynomial* quot, Polynomial* rem) {
  PULSE_CHECK(!den.IsZero());
  PULSE_CHECK(quot != rem && quot != &num && quot != &den && rem != &den);
  const size_t n = num.IsZero() ? 0 : num.degree() + 1;
  const size_t dn = den.degree();
  const double lead = den.coeff(dn);
  if (n < dn + 1) {
    if (rem != &num) *rem = num;
    *quot = Polynomial();
    return;
  }
  // Long division in place on rem's buffer: no vector temporaries, no
  // allocation while both polynomials fit the inline storage.
  if (rem != &num) *rem = num;
  Polynomial& r = *rem;
  Polynomial& q = *quot;
  q.Resize(n - dn);
  for (size_t i = 0; i < n - dn; ++i) q[i] = 0.0;
  for (size_t i = n - 1;; --i) {  // top coefficient downwards
    const double factor = r[i] / lead;
    q[i - dn] = factor;
    for (size_t k = 0; k <= dn; ++k) {
      r[i - dn + k] -= factor * den.coeff(k);
    }
    if (i == dn) break;
  }
  r.Resize(dn);
  r.TrimInPlace();
  q.TrimInPlace();
}

Polynomial PolynomialGcd(const Polynomial& a, const Polynomial& b) {
  Polynomial x = a;
  Polynomial y = b;
  while (!y.IsZero()) {
    Polynomial q, r;
    DividePolynomials(x, y, &q, &r);
    x = y;
    y = r;
    // Normalize to keep coefficients in range across iterations.
    if (!y.IsZero()) {
      const double lead = y.coeff(y.degree());
      if (std::abs(lead) > 0.0) y = y * (1.0 / lead);
    }
  }
  if (!x.IsZero()) {
    const double lead = x.coeff(x.degree());
    x = x * (1.0 / lead);
  }
  return x;
}

std::vector<Polynomial> SturmSequence(const Polynomial& p) {
  RootScratch scratch;
  SturmSequenceInto(p, &scratch);
  return std::move(scratch.sturm);
}

void SturmSequenceInto(const Polynomial& p, RootScratch* scratch) {
  std::vector<Polynomial>& seq = scratch->sturm;
  // Reuse existing entries (and their coefficient buffers) in place.
  auto entry = [&seq](size_t i) -> Polynomial& {
    if (i == seq.size()) seq.emplace_back();
    return seq[i];
  };
  size_t n = 0;
  entry(n++) = p;
  p.DerivativeInto(&entry(n));
  if (!seq[n].IsZero()) {
    ++n;
    while (seq[n - 1].degree() > 0) {
      DividePolynomials(seq[n - 2], seq[n - 1], &scratch->quot,
                        &scratch->rem);
      if (scratch->rem.IsZero()) break;
      scratch->rem.ScaleInPlace(-1.0);
      std::swap(entry(n), scratch->rem);
      ++n;
    }
  }
  seq.resize(n);
}

int CountRootsInInterval(const std::vector<Polynomial>& sturm, double a,
                         double b) {
  return SturmSignChanges(sturm, a) - SturmSignChanges(sturm, b);
}

std::vector<double> FindRealRoots(const Polynomial& p, double lo,
                                  double hi) {
  RootScratch scratch;
  FindRealRootsInto(p, lo, hi, &scratch);
  return std::move(scratch.roots);
}

void FindRealRootsInto(const Polynomial& p, double lo, double hi,
                       RootScratch* scratch) {
  std::vector<double>& roots = scratch->roots;
  roots.clear();
  if (p.IsZero() || lo > hi) return;
  const size_t d = p.degree();
  if (d == 0) return;  // non-zero constant: no roots

  // Closed-form dispatch happens before any Sturm machinery is built:
  // degree <= 3 covers every difference polynomial of the paper's
  // low-degree motion models and never touches the scratch polynomials.
  if (d <= 3) {
    roots_internal::ClosedFormRootsInto(p, &roots);
    roots_internal::ClipRoots(lo, hi, &roots);
    roots_internal::DedupeRoots(&roots);
    return;
  }

  // Square-free reduction so Sturm counting sees each root once.
  scratch->square_free = p;
  p.DerivativeInto(&scratch->derivative);
  const Polynomial g = PolynomialGcd(p, scratch->derivative);
  if (g.degree() > 0) {
    DividePolynomials(p, g, &scratch->quot, &scratch->rem);
    if (!scratch->quot.IsZero()) {
      std::swap(scratch->square_free, scratch->quot);
    }
  }
  SturmSequenceInto(scratch->square_free, scratch);
  // Nudge the window outwards so boundary roots are counted (Sturm counts
  // roots in (a, b]).
  IsolateAndSolve(scratch->square_free, scratch->sturm,
                  lo - kRootTolerance, hi + kRootTolerance, &roots);
  roots_internal::ClipRoots(lo, hi, &roots);
  roots_internal::DedupeRoots(&roots);
}

Result<double> BrentRoot(const std::function<double(double)>& f, double a,
                         double b, double tol, int max_iter) {
  double fa = f(a);
  double fb = f(b);
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;
  if ((fa < 0.0) == (fb < 0.0)) {
    return Status::InvalidArgument("BrentRoot: interval does not bracket");
  }
  if (std::abs(fa) < std::abs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a;
  double fc = fa;
  double s = b;
  double d = 0.0;
  bool mflag = true;
  for (int iter = 0; iter < max_iter; ++iter) {
    if (fb == 0.0 || std::abs(b - a) < tol) return b;
    if (fa != fc && fb != fc) {
      // Inverse quadratic interpolation.
      s = a * fb * fc / ((fa - fb) * (fa - fc)) +
          b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      // Secant step.
      s = b - fb * (b - a) / (fb - fa);
    }
    const double lo = (3.0 * a + b) / 4.0;
    const bool out_of_range = !((s > std::min(lo, b)) && (s < std::max(lo, b)));
    const bool slow_mflag =
        mflag && std::abs(s - b) >= std::abs(b - c) / 2.0;
    const bool slow_noflag =
        !mflag && std::abs(s - b) >= std::abs(c - d) / 2.0;
    const bool tiny_mflag = mflag && std::abs(b - c) < tol;
    const bool tiny_noflag = !mflag && std::abs(c - d) < tol;
    if (out_of_range || slow_mflag || slow_noflag || tiny_mflag ||
        tiny_noflag) {
      s = 0.5 * (a + b);
      mflag = true;
    } else {
      mflag = false;
    }
    const double fs = f(s);
    d = c;
    c = b;
    fc = fb;
    if ((fa < 0.0) != (fs < 0.0)) {
      b = s;
      fb = fs;
    } else {
      a = s;
      fa = fs;
    }
    if (std::abs(fa) < std::abs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
  }
  return b;
}

IntervalSet SolveComparison(const Polynomial& p, CmpOp op,
                            const Interval& domain) {
  RootScratch scratch;
  IntervalSet out;
  SolveComparisonInto(p, op, domain, &scratch, &out);
  return out;
}

void SolveComparisonInto(const Polynomial& p, CmpOp op,
                         const Interval& domain, RootScratch* scratch,
                         IntervalSet* out) {
  if (roots_internal::SolveComparisonTrivial(p, op, domain, out)) return;

  if (op == CmpOp::kNe) {
    SolveComparisonInto(p, CmpOp::kEq, domain, scratch,
                        &scratch->set_scratch);
    scratch->set_scratch.ComplementInto(domain, out);
    return;
  }

  FindRealRootsInto(p, domain.lo, domain.hi, scratch);
  const std::vector<double>& roots = scratch->roots;

  if (op == CmpOp::kEq) {
    roots_internal::AssembleEquality(roots.data(), roots.size(), domain,
                                     &scratch->cells, out);
    return;
  }

  roots_internal::BuildCuts(roots.data(), roots.size(), domain,
                            &scratch->cuts);
  roots_internal::AssembleInequality(p, op, domain, roots.data(),
                                     roots.size(), scratch->cuts.data(),
                                     scratch->cuts.size(),
                                     /*mid_values=*/nullptr, &scratch->cells,
                                     out);
}

}  // namespace pulse
