#include "core/equation_system.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "math/batch_kernels.h"
#include "math/roots_internal.h"
#include "obs/span.h"
#include "util/cpu_features.h"

namespace pulse {

std::string DifferenceEquation::ToString() const {
  return diff.ToString() + " " + CmpOpToString(op) + " 0";
}

DifferenceEquation MakeDifferenceEquation(Polynomial lhs, CmpOp op,
                                          const Polynomial& rhs) {
  lhs.SubInPlace(rhs);
  return DifferenceEquation{std::move(lhs), op};
}

IntervalSet EquationSystem::Solve(const Interval& domain) const {
  SolveScratch scratch;
  IntervalSet solution;
  SolveInto(domain, &scratch, &solution);
  return solution;
}

void EquationSystem::SolveInto(const Interval& domain, SolveScratch* scratch,
                               IntervalSet* out) const {
  if (domain.IsEmpty()) {
    out->Clear();
    return;
  }
  if (rows_.empty()) {
    out->AssignInterval(domain);
    return;
  }
  // The first row solves directly into *out (SolveComparisonInto clips to
  // the domain, so out == domain ∩ row0 with no explicit intersection);
  // later rows solve into the scratch set and intersect in.
  bool first = true;
  for (const DifferenceEquation& row : rows_) {
    IntervalSet* target = first ? out : &scratch->row_solution;
    SolveComparisonInto(row.diff, row.op, domain, &scratch->roots, target);
    if (!first) {
      out->IntersectWith(scratch->row_solution,
                         &scratch->roots.interval_scratch);
    }
    first = false;
    if (out->IsEmpty()) break;
  }
}

double EquationSystem::Slack(const Interval& domain) const {
  if (rows_.empty()) return 0.0;
  if (domain.IsEmpty()) return std::numeric_limits<double>::infinity();

  // Candidate minimizers of max_i |p_i(t)|: domain endpoints, roots and
  // derivative roots of each row, and pairwise crossings |p_i| = |p_j|
  // (roots of p_i - p_j and p_i + p_j).
  std::vector<double> candidates = {domain.lo, domain.hi};
  auto add_roots = [&](const Polynomial& p) {
    for (double r : FindRealRoots(p, domain.lo, domain.hi)) {
      candidates.push_back(r);
    }
  };
  for (const DifferenceEquation& row : rows_) {
    add_roots(row.diff);
    add_roots(row.diff.Derivative());
  }
  for (size_t i = 0; i < rows_.size(); ++i) {
    for (size_t j = i + 1; j < rows_.size(); ++j) {
      add_roots(rows_[i].diff - rows_[j].diff);
      add_roots(rows_[i].diff + rows_[j].diff);
    }
  }

  double best = std::numeric_limits<double>::infinity();
  for (double t : candidates) {
    if (t < domain.lo || t > domain.hi) continue;
    double max_row = 0.0;
    for (const DifferenceEquation& row : rows_) {
      max_row = std::max(max_row, std::abs(row.diff.Evaluate(t)));
    }
    best = std::min(best, max_row);
  }
  return best;
}

namespace {

// ---------------------------------------------------------------------------
// Batched SoA solve path. Rows of pending tasks are gathered by degree
// into structure-of-arrays coefficient columns, flushed through the
// dispatched BatchKernels tier (AVX2 → SSE2/NEON → scalar), then
// assembled with the same roots_internal steps the per-row scalar path
// uses — so results are bit-identical across dispatch tiers. Rows the
// kernels cannot take (kNe, degree > 3, trivial rows) fall back to
// SolveComparisonInto per row.
// ---------------------------------------------------------------------------

constexpr size_t kMaxBatchDegree = 3;
constexpr uint32_t kTaskDone = ~uint32_t{0};

// Obs sites for the batched solver, cached per thread and revalidated
// when the registry epoch changes (the SpanSite rationale). The
// per-kernel histogram additionally keys on the kernel-name pointer so
// a test override switching tiers mid-epoch cannot record into the
// previous tier's histogram.
struct BatchObsSite {
  uint64_t epoch = ~uint64_t{0};
  const char* kernel_name = nullptr;
  obs::Histogram* kernel_hist = nullptr;
  obs::Counter* filled = nullptr;
  obs::Counter* flushed = nullptr;
  obs::Counter* scalar_fallback = nullptr;

  void Refresh(const char* name) {
    const uint64_t current_epoch = obs::CurrentRegistryEpoch();
    if (current_epoch == epoch && kernel_name == name) return;
    epoch = current_epoch;
    kernel_name = name;
    obs::MetricsRegistry* registry = obs::CurrentRegistry();
    if (registry == nullptr) {
      kernel_hist = nullptr;
      filled = flushed = scalar_fallback = nullptr;
      return;
    }
    kernel_hist = registry->GetHistogram(std::string("span/solver/") + name);
    filled = registry->GetCounter("solver/batch/filled");
    flushed = registry->GetCounter("solver/batch/flushed");
    scalar_fallback = registry->GetCounter("solver/batch/scalar_fallback");
  }
};

// One row awaiting a batched solve; `target` is where its interval set
// goes (the task's output set for first rows, an aux set otherwise).
struct RowRef {
  const DifferenceEquation* row;
  const Interval* domain;
  IntervalSet* target;
};

// Per-degree SoA coefficient columns awaiting a closed-form kernel
// flush, plus the kernel's output columns.
struct RootBatch {
  std::array<std::vector<double>, kMaxBatchDegree + 1> c;
  std::vector<uint32_t> slots;  // RowRef index per lane
  std::vector<double> r0, r1, r2;
  std::vector<uint8_t> count;

  void Clear() {
    for (auto& column : c) column.clear();
    slots.clear();
  }
};

// Per-degree SoA midpoint-evaluation jobs (coefficients are duplicated
// per midpoint so the Horner kernel stays a pure column walk).
struct EvalBatch {
  std::array<std::vector<double>, kMaxBatchDegree + 1> c;
  std::vector<double> t;
  std::vector<double> out;

  void Clear() {
    for (auto& column : c) column.clear();
    t.clear();
    out.clear();
  }
};

// An inequality row whose roots came back from a root kernel and now
// waits on its batched midpoint evaluations before assembly.
struct PendingRow {
  uint32_t slot;
  uint32_t degree;
  uint32_t roots_begin, roots_end;  // into BatchScratch::roots_flat
  uint32_t cuts_begin, cuts_end;    // into BatchScratch::cuts_flat
  uint32_t mids_begin;              // into evals[degree - 1].out
};

struct BatchScratch {
  SolveScratch scalar;
  std::vector<IntervalSet> row_sets;  // aux targets for non-first rows
  std::vector<RowRef> row_refs;
  // Per task: {first RowRef slot, row count}, or {kTaskDone, 0}
  // when the task was answered inline (empty domain / no rows).
  std::vector<std::array<uint32_t, 2>> task_rows;
  std::array<RootBatch, kMaxBatchDegree> roots;
  std::array<EvalBatch, kMaxBatchDegree> evals;
  std::vector<PendingRow> pending;
  std::vector<double> roots_flat;
  std::vector<double> cuts_flat;
};

void SolveBatch(const EquationSystemTask* tasks, size_t n,
                std::vector<IntervalSet>* solutions, BatchScratch* s) {
  const BatchKernels& kernels = ActiveBatchKernels();
  static thread_local BatchObsSite obs_site;
  if constexpr (obs::kMetricsEnabled) obs_site.Refresh(kernels.name);

  size_t total_rows = 0;
  for (size_t ti = 0; ti < n; ++ti) {
    total_rows += tasks[ti].system.rows().size();
  }
  // Aux sets are addressed by stable pointers below; size once up front.
  if (s->row_sets.size() < total_rows) s->row_sets.resize(total_rows);
  s->row_refs.clear();
  s->task_rows.clear();
  for (RootBatch& b : s->roots) b.Clear();
  for (EvalBatch& e : s->evals) e.Clear();
  s->pending.clear();
  s->roots_flat.clear();
  s->cuts_flat.clear();

  // Pass 1: classify every row. Non-batchable rows are finished here via
  // the per-row scalar path, exactly as EquationSystem::SolveInto would;
  // batchable rows gather their coefficients into the per-degree columns.
  uint64_t scalar_rows = 0;
  size_t aux = 0;
  for (size_t ti = 0; ti < n; ++ti) {
    const EquationSystemTask& task = tasks[ti];
    IntervalSet& out = (*solutions)[ti];
    if (task.domain.IsEmpty()) {
      out.Clear();
      s->task_rows.push_back({kTaskDone, 0});
      continue;
    }
    const std::vector<DifferenceEquation>& rows = task.system.rows();
    if (rows.empty()) {
      out.AssignInterval(task.domain);
      s->task_rows.push_back({kTaskDone, 0});
      continue;
    }
    s->task_rows.push_back({static_cast<uint32_t>(s->row_refs.size()),
                            static_cast<uint32_t>(rows.size())});
    bool first = true;
    for (const DifferenceEquation& row : rows) {
      // First rows solve straight into the task output (the scalar
      // path's representation contract); later rows into aux sets that
      // pass 5 intersects in row order.
      IntervalSet* target = first ? &out : &s->row_sets[aux++];
      first = false;
      const uint32_t slot = static_cast<uint32_t>(s->row_refs.size());
      s->row_refs.push_back({&row, &task.domain, target});
      const size_t d = row.diff.IsZero() ? 0 : row.diff.degree();
      const bool batchable =
          row.op != CmpOp::kNe && d >= 1 && d <= kMaxBatchDegree;
      if (!batchable) {
        SolveComparisonInto(row.diff, row.op, task.domain, &s->scalar.roots,
                            target);
        ++scalar_rows;
        continue;
      }
      RootBatch& b = s->roots[d - 1];
      for (size_t j = 0; j <= d; ++j) b.c[j].push_back(row.diff.coeff(j));
      b.slots.push_back(slot);
    }
  }

  // Pass 2: flush the per-degree root kernels.
  uint64_t lanes_filled = 0;
  uint64_t flushes = 0;
  {
    obs::Span kernel_span(obs_site.kernel_hist);
    for (size_t d = 1; d <= kMaxBatchDegree; ++d) {
      RootBatch& b = s->roots[d - 1];
      const size_t lanes = b.slots.size();
      if (lanes == 0) continue;
      b.r0.resize(lanes);
      b.r1.resize(lanes);
      b.r2.resize(lanes);
      b.count.resize(lanes);
      switch (d) {
        case 1:
          kernels.linear_roots(b.c[0].data(), b.c[1].data(), b.r0.data(),
                               lanes);
          break;
        case 2:
          kernels.quadratic_roots(b.c[0].data(), b.c[1].data(),
                                  b.c[2].data(), b.r0.data(), b.r1.data(),
                                  b.count.data(), lanes);
          break;
        default:
          kernels.cubic_roots(b.c[0].data(), b.c[1].data(), b.c[2].data(),
                              b.c[3].data(), b.r0.data(), b.r1.data(),
                              b.r2.data(), b.count.data(), lanes);
          break;
      }
      lanes_filled += lanes;
      ++flushes;
    }
  }

  // Pass 3: per lane, clip + dedupe roots; finish equality rows and
  // queue inequality rows' midpoint evaluations by degree.
  for (size_t d = 1; d <= kMaxBatchDegree; ++d) {
    RootBatch& b = s->roots[d - 1];
    for (size_t k = 0; k < b.slots.size(); ++k) {
      const RowRef& ref = s->row_refs[b.slots[k]];
      std::vector<double>& lane_roots = s->scalar.roots.roots;
      lane_roots.clear();
      const uint8_t cnt = d == 1 ? uint8_t{1} : b.count[k];
      if (cnt >= 1) lane_roots.push_back(b.r0[k]);
      if (cnt >= 2) lane_roots.push_back(b.r1[k]);
      if (cnt >= 3) lane_roots.push_back(b.r2[k]);
      roots_internal::ClipRoots(ref.domain->lo, ref.domain->hi,
                                &lane_roots);
      roots_internal::DedupeRoots(&lane_roots);
      if (ref.row->op == CmpOp::kEq) {
        roots_internal::AssembleEquality(lane_roots.data(),
                                         lane_roots.size(), *ref.domain,
                                         &s->scalar.roots.cells, ref.target);
        continue;
      }
      std::vector<double>& cuts = s->scalar.roots.cuts;
      roots_internal::BuildCuts(lane_roots.data(), lane_roots.size(),
                                *ref.domain, &cuts);
      PendingRow pending;
      pending.slot = b.slots[k];
      pending.degree = static_cast<uint32_t>(d);
      pending.roots_begin = static_cast<uint32_t>(s->roots_flat.size());
      s->roots_flat.insert(s->roots_flat.end(), lane_roots.begin(),
                           lane_roots.end());
      pending.roots_end = static_cast<uint32_t>(s->roots_flat.size());
      pending.cuts_begin = static_cast<uint32_t>(s->cuts_flat.size());
      s->cuts_flat.insert(s->cuts_flat.end(), cuts.begin(), cuts.end());
      pending.cuts_end = static_cast<uint32_t>(s->cuts_flat.size());
      EvalBatch& evals = s->evals[d - 1];
      pending.mids_begin = static_cast<uint32_t>(evals.t.size());
      for (size_t i = 0; i + 1 < cuts.size(); ++i) {
        const double a = cuts[i];
        const double bb = cuts[i + 1];
        if (bb <= a) continue;
        evals.t.push_back(0.5 * (a + bb));
        for (size_t j = 0; j <= d; ++j) {
          evals.c[j].push_back(ref.row->diff.coeff(j));
        }
      }
      s->pending.push_back(pending);
    }
  }

  // Pass 4: batched Horner over every queued midpoint.
  {
    obs::Span kernel_span(obs_site.kernel_hist);
    for (size_t d = 1; d <= kMaxBatchDegree; ++d) {
      EvalBatch& evals = s->evals[d - 1];
      if (evals.t.empty()) continue;
      evals.out.resize(evals.t.size());
      std::array<const double*, kMaxBatchDegree + 1> cols = {};
      for (size_t j = 0; j <= d; ++j) cols[j] = evals.c[j].data();
      kernels.horner(cols.data(), d, evals.t.data(), evals.out.data(),
                     evals.t.size());
      lanes_filled += evals.t.size();
      ++flushes;
    }
  }

  // Pass 5: assemble the pending inequalities from their precomputed
  // midpoint values.
  for (const PendingRow& pending : s->pending) {
    const RowRef& ref = s->row_refs[pending.slot];
    const EvalBatch& evals = s->evals[pending.degree - 1];
    const double* mids =
        evals.out.empty() ? nullptr : evals.out.data() + pending.mids_begin;
    roots_internal::AssembleInequality(
        ref.row->diff, ref.row->op, *ref.domain,
        s->roots_flat.data() + pending.roots_begin,
        pending.roots_end - pending.roots_begin,
        s->cuts_flat.data() + pending.cuts_begin,
        pending.cuts_end - pending.cuts_begin, mids, &s->scalar.roots.cells,
        ref.target);
  }

  // Pass 6: intersect each task's row sets in row order (first row is
  // already in the output set), mirroring EquationSystem::SolveInto.
  for (size_t ti = 0; ti < n; ++ti) {
    const std::array<uint32_t, 2>& tr = s->task_rows[ti];
    if (tr[0] == kTaskDone) continue;
    IntervalSet& out = (*solutions)[ti];
    for (uint32_t k = 1; k < tr[1] && !out.IsEmpty(); ++k) {
      out.IntersectWith(*s->row_refs[tr[0] + k].target,
                        &s->scalar.roots.interval_scratch);
    }
  }

  if constexpr (obs::kMetricsEnabled) {
    if (obs_site.filled != nullptr) obs_site.filled->Add(lanes_filled);
    if (obs_site.flushed != nullptr) obs_site.flushed->Add(flushes);
    if (obs_site.scalar_fallback != nullptr) {
      obs_site.scalar_fallback->Add(scalar_rows);
    }
  }
}

}  // namespace

void SolveSystemsInto(const EquationSystemTask* tasks, size_t n,
                      std::vector<IntervalSet>* solutions) {
  PULSE_SPAN("solve/batch");
  solutions->resize(n);
  if (n == 0) return;
  // One batch over the whole call maximizes SIMD lane fill. Per-thread
  // scratch keeps buffers warm across calls and is never shared between
  // the shard workers that call this concurrently.
  static thread_local BatchScratch scratch;
  SolveBatch(tasks, n, solutions, &scratch);
}

std::string EquationSystem::ToString() const {
  std::ostringstream os;
  os << "EquationSystem{";
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (i > 0) os << "; ";
    os << rows_[i].ToString();
  }
  os << "}";
  return os.str();
}

}  // namespace pulse
