#include "core/equation_system.h"

#include <cmath>

#include <gtest/gtest.h>

namespace pulse {
namespace {

TEST(DifferenceEquation, FromAttributePair) {
  // Paper Fig. 1: A.x + A.v t  vs  B.v t + B.a t^2 under '<'.
  Polynomial ax({1.0, 2.0});        // A.x = 1 + 2t
  Polynomial by({0.0, 1.0, 0.5});   // B.y = t + 0.5 t^2
  DifferenceEquation row = MakeDifferenceEquation(ax, CmpOp::kLt, by);
  // (x - y)(t) = 1 + t - 0.5 t^2.
  EXPECT_NEAR(row.diff.coeff(0), 1.0, 1e-12);
  EXPECT_NEAR(row.diff.coeff(1), 1.0, 1e-12);
  EXPECT_NEAR(row.diff.coeff(2), -0.5, 1e-12);
  EXPECT_EQ(row.op, CmpOp::kLt);
  EXPECT_NE(row.ToString().find("< 0"), std::string::npos);
}

TEST(EquationSystem, SolveSingleRow) {
  // t - 5 < 0 over [0, 10).
  EquationSystem sys;
  sys.AddRow(DifferenceEquation{Polynomial({-5.0, 1.0}), CmpOp::kLt});
  IntervalSet sol = sys.Solve(Interval::ClosedOpen(0.0, 10.0));
  EXPECT_TRUE(sol.Contains(2.0));
  EXPECT_FALSE(sol.Contains(6.0));
}

TEST(EquationSystem, SolveConjunctionIntersects) {
  // t > 2 AND t < 7 -> (2, 7).
  EquationSystem sys;
  sys.AddRow(DifferenceEquation{Polynomial({-2.0, 1.0}), CmpOp::kGt});
  sys.AddRow(DifferenceEquation{Polynomial({-7.0, 1.0}), CmpOp::kLt});
  IntervalSet sol = sys.Solve(Interval::Closed(0.0, 10.0));
  ASSERT_EQ(sol.size(), 1u);
  EXPECT_FALSE(sol.Contains(2.0));
  EXPECT_TRUE(sol.Contains(5.0));
  EXPECT_FALSE(sol.Contains(7.0));
}

TEST(EquationSystem, UnsatisfiableSystemEmpty) {
  // t < 2 AND t > 7: no solution — the operator emits nothing.
  EquationSystem sys;
  sys.AddRow(DifferenceEquation{Polynomial({-2.0, 1.0}), CmpOp::kLt});
  sys.AddRow(DifferenceEquation{Polynomial({-7.0, 1.0}), CmpOp::kGt});
  EXPECT_TRUE(sys.Solve(Interval::Closed(0.0, 10.0)).IsEmpty());
}

TEST(EquationSystem, EmptySystemIsWholeDomain) {
  EquationSystem sys;
  IntervalSet sol = sys.Solve(Interval::Closed(0.0, 1.0));
  EXPECT_DOUBLE_EQ(sol.TotalLength(), 1.0);
}

// All-equality degree-1 systems (the equi-join shape) solve through the
// general path: per-row closed-form roots, intersected.
EquationSystem AllEquality(std::vector<Polynomial> rows) {
  EquationSystem sys;
  for (Polynomial& p : rows) {
    sys.AddRow(DifferenceEquation{std::move(p), CmpOp::kEq});
  }
  return sys;
}

// Solves `sys` through the scalar and the batched path; they must agree.
IntervalSet SolveBoth(const EquationSystem& sys, const Interval& dom) {
  std::vector<EquationSystemTask> tasks = {{sys, dom}};
  std::vector<IntervalSet> batched;
  SolveSystemsInto(tasks.data(), tasks.size(), &batched);
  IntervalSet scalar = sys.Solve(dom);
  if (batched.size() == 1) {
    EXPECT_EQ(batched[0], scalar);
  } else {
    ADD_FAILURE() << "batched solve returned " << batched.size()
                  << " results for 1 task";
  }
  return scalar;
}

TEST(EquationSystem, AllEqualityLinearRowsMeetAtOnePoint) {
  // 2t - 6 = 0 and t - 3 = 0: the common solution t = 3.
  IntervalSet sol = SolveBoth(
      AllEquality({Polynomial({-6.0, 2.0}), Polynomial({-3.0, 1.0})}),
      Interval::Closed(0.0, 10.0));
  ASSERT_EQ(sol.size(), 1u);
  EXPECT_TRUE(sol.intervals()[0].IsPoint());
  EXPECT_NEAR(sol.intervals()[0].lo, 3.0, 1e-12);
}

TEST(EquationSystem, LinearEqualityInconsistentRows) {
  EXPECT_TRUE(SolveBoth(AllEquality({Polynomial({-6.0, 2.0}),
                                     Polynomial({-8.0, 1.0})}),
                        Interval::Closed(0.0, 10.0))
                  .IsEmpty());
}

TEST(EquationSystem, LinearEqualityOutsideDomain) {
  // The one solution t = 15 lies outside the domain.
  EXPECT_TRUE(SolveBoth(AllEquality({Polynomial({-30.0, 2.0})}),
                        Interval::Closed(0.0, 10.0))
                  .IsEmpty());
}

TEST(EquationSystem, LinearEqualityDegenerateRows) {
  const Interval dom = Interval::Closed(0.0, 10.0);
  // A 0 = 0 row constrains nothing.
  IntervalSet sol =
      SolveBoth(AllEquality({Polynomial(), Polynomial({-4.0, 2.0})}), dom);
  ASSERT_EQ(sol.size(), 1u);
  EXPECT_NEAR(sol.intervals()[0].lo, 2.0, 1e-12);
  // A constant non-zero row never holds.
  EXPECT_TRUE(SolveBoth(AllEquality({Polynomial({5.0})}), dom).IsEmpty());
  // Only 0 = 0 rows: the whole domain.
  EXPECT_DOUBLE_EQ(
      SolveBoth(AllEquality({Polynomial(), Polynomial()}), dom)
          .TotalLength(),
      10.0);
}

TEST(EquationSystem, BatchedAgreesWithScalarOnAllEqualityRows) {
  // Many systems in one batched call, each equal to its scalar solve.
  const Interval dom = Interval::Closed(0.0, 10.0);
  std::vector<EquationSystemTask> tasks;
  for (int i = 0; i < 16; ++i) {
    const double root = 0.75 * i;  // 0 .. 11.25; the last ones fall out
    tasks.push_back(
        {AllEquality({Polynomial({-3.0 * root, 3.0}),
                      Polynomial({-root, 1.0})}),
         dom});
  }
  tasks.push_back({AllEquality({Polynomial({-7.5, 3.0})}), dom});
  std::vector<IntervalSet> batched;
  SolveSystemsInto(tasks.data(), tasks.size(), &batched);
  ASSERT_EQ(batched.size(), tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(batched[i], tasks[i].system.Solve(dom)) << "task " << i;
  }
  ASSERT_EQ(batched.back().size(), 1u);
  EXPECT_TRUE(batched.back().intervals()[0].IsPoint());
  EXPECT_NEAR(batched.back().intervals()[0].lo, 2.5, 1e-9);
}

TEST(EquationSystem, SlackSingleRowLinear) {
  // |t - 5| over [0, 4]: minimum 1 at t = 4 (predicate t - 5 = 0 nearly
  // fires at the domain edge).
  EquationSystem sys;
  sys.AddRow(DifferenceEquation{Polynomial({-5.0, 1.0}), CmpOp::kEq});
  EXPECT_NEAR(sys.Slack(Interval::Closed(0.0, 4.0)), 1.0, 1e-9);
  // Domain containing the root: slack 0.
  EXPECT_NEAR(sys.Slack(Interval::Closed(0.0, 10.0)), 0.0, 1e-9);
}

TEST(EquationSystem, SlackUsesMaxNormAcrossRows) {
  // Rows t - 5 and t + 5 over [-1, 1]: ||Dt||_inf = max(|t-5|, |t+5|),
  // minimized at t = 0 with value 5.
  EquationSystem sys;
  sys.AddRow(DifferenceEquation{Polynomial({-5.0, 1.0}), CmpOp::kEq});
  sys.AddRow(DifferenceEquation{Polynomial({5.0, 1.0}), CmpOp::kEq});
  EXPECT_NEAR(sys.Slack(Interval::Closed(-1.0, 1.0)), 5.0, 1e-9);
}

TEST(EquationSystem, SlackQuadraticInteriorMinimum) {
  // (t-3)^2 + 2 over [0, 10]: minimum 2 at t = 3 (derivative root).
  EquationSystem sys;
  sys.AddRow(
      DifferenceEquation{Polynomial({11.0, -6.0, 1.0}), CmpOp::kLt});
  EXPECT_NEAR(sys.Slack(Interval::Closed(0.0, 10.0)), 2.0, 1e-9);
}

TEST(EquationSystem, SlackEdgeCases) {
  EquationSystem empty;
  EXPECT_DOUBLE_EQ(empty.Slack(Interval::Closed(0.0, 1.0)), 0.0);
  EquationSystem sys;
  sys.AddRow(DifferenceEquation{Polynomial({1.0}), CmpOp::kEq});
  EXPECT_TRUE(std::isinf(sys.Slack(Interval::Closed(1.0, 0.0))));
}

TEST(EquationSystem, ToStringListsRows) {
  EquationSystem sys;
  sys.AddRow(DifferenceEquation{Polynomial({-5.0, 1.0}), CmpOp::kLt});
  EXPECT_NE(sys.ToString().find("<"), std::string::npos);
}

// Property sweep: slack is a true lower bound on every row's magnitude at
// any domain point.
class SlackSweep : public ::testing::TestWithParam<double> {};

TEST_P(SlackSweep, LowerBoundsRowMagnitudes) {
  const double shift = GetParam();
  EquationSystem sys;
  sys.AddRow(
      DifferenceEquation{Polynomial({shift, -1.0, 0.25}), CmpOp::kLt});
  sys.AddRow(DifferenceEquation{Polynomial({-shift, 0.5}), CmpOp::kGt});
  const Interval dom = Interval::Closed(0.0, 8.0);
  const double slack = sys.Slack(dom);
  for (double t = 0.0; t <= 8.0; t += 0.05) {
    double max_row = 0.0;
    for (const DifferenceEquation& row : sys.rows()) {
      max_row = std::max(max_row, std::abs(row.diff.Evaluate(t)));
    }
    EXPECT_GE(max_row + 1e-9, slack) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Shifts, SlackSweep,
                         ::testing::Values(-3.0, -1.0, 0.0, 0.5, 2.0, 10.0));

}  // namespace
}  // namespace pulse
