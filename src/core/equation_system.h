#ifndef PULSE_CORE_EQUATION_SYSTEM_H_
#define PULSE_CORE_EQUATION_SYSTEM_H_

#include <string>
#include <vector>

#include "math/interval_set.h"
#include "math/polynomial.h"
#include "math/roots.h"

namespace pulse {

/// Caller-provided scratch for system solving: the root-finding scratch
/// plus the per-row solution set the intersection loop reuses. One per
/// thread (SolveSystemsInto keeps a thread_local instance per thread).
struct SolveScratch {
  RootScratch roots;
  IntervalSet row_solution;
};

/// One row of a simultaneous equation system: a difference polynomial and
/// the comparison it must satisfy. Produced by the paper's three-step
/// predicate transform (Section III-A):
///   1. rewrite x R y in difference form      x - y R 0
///   2. substitute the continuous models      x(t) - y(t) R 0
///   3. factorize model coefficients          (x-y)(t) R 0
struct DifferenceEquation {
  Polynomial diff;
  CmpOp op = CmpOp::kEq;

  std::string ToString() const;
};

/// Builds a difference equation from two attribute models. `lhs` is taken
/// by value: it becomes the row's difference polynomial in place, so
/// callers that are done with it should std::move it in.
DifferenceEquation MakeDifferenceEquation(Polynomial lhs, CmpOp op,
                                          const Polynomial& rhs);

/// The basic computation element of Pulse (paper Eq. 1): a set of
/// difference equations that must hold simultaneously, with the single
/// unknown t. Solving the system yields the time ranges over which a
/// selective operator produces results.
class EquationSystem {
 public:
  EquationSystem() = default;
  explicit EquationSystem(std::vector<DifferenceEquation> rows)
      : rows_(std::move(rows)) {}

  void AddRow(DifferenceEquation row) { rows_.push_back(std::move(row)); }

  /// Moves every row of `other` onto the end of this system.
  void AddRowsFrom(EquationSystem&& other) {
    for (DifferenceEquation& row : other.rows_) {
      rows_.push_back(std::move(row));
    }
    other.rows_.clear();
  }

  /// Drops all rows but keeps the row vector's capacity, so a reused
  /// system rebuilds without reallocating (the join's task scratch).
  void Clear() { rows_.clear(); }

  size_t num_rows() const { return rows_.size(); }
  const std::vector<DifferenceEquation>& rows() const { return rows_; }

  /// General solution algorithm (Section III-A): solve each equation
  /// independently, intersect the per-row time-range solutions over
  /// `domain`. Empty result means the predicate never holds within the
  /// given models' ranges — the operator emits nothing.
  IntervalSet Solve(const Interval& domain) const;

  /// Scratch form of Solve: writes the solution into *out, reusing
  /// scratch buffers across calls.
  void SolveInto(const Interval& domain, SolveScratch* scratch,
                 IntervalSet* out) const;

  /// The paper's slack measure (Section IV):
  ///   slack = min_t ||D t||_inf  over t in `domain`,
  /// i.e. the smallest maximum-row magnitude — a continuous measure of the
  /// query's proximity to producing a result. The max-norm ensures no
  /// mispredicted tuple that could produce results is missed. Exact for
  /// polynomials: candidates are domain endpoints, per-row derivative
  /// roots, and pairwise |row_i| = |row_j| crossing points.
  double Slack(const Interval& domain) const;

  std::string ToString() const;

 private:
  std::vector<DifferenceEquation> rows_;
};

/// One independent solve instance for batch execution: an equation
/// system plus the time domain to solve it over.
struct EquationSystemTask {
  EquationSystem system;
  Interval domain;
};

/// Solves tasks[0..n) independently into *solutions (resized to n, in
/// task order; interval storage of previous batches is reused). Rows of
/// every task gather into the batched closed-form kernels, so one call
/// fills SIMD lanes across the whole batch. The calling thread keeps a
/// thread_local scratch (shard workers call this concurrently); combined
/// with a caller-owned task scratch this per-push hot path of the join
/// allocates nothing once warm.
void SolveSystemsInto(const EquationSystemTask* tasks, size_t n,
                      std::vector<IntervalSet>* solutions);

}  // namespace pulse

#endif  // PULSE_CORE_EQUATION_SYSTEM_H_
