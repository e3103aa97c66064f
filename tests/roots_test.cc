#include "math/roots.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

namespace pulse {
namespace {

void ExpectRootsNear(const std::vector<double>& actual,
                     std::vector<double> expected, double tol = 1e-8) {
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(actual.size(), expected.size())
      << "wrong root count";
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], tol) << "root " << i;
  }
}

// Builds the monic polynomial with the given roots.
Polynomial FromRoots(const std::vector<double>& roots) {
  Polynomial p = Polynomial::Constant(1.0);
  for (double r : roots) {
    p = p * Polynomial({-r, 1.0});
  }
  return p;
}

TEST(FindRealRoots, Linear) {
  // 2t - 4 = 0 at t = 2.
  ExpectRootsNear(FindRealRoots(Polynomial({-4.0, 2.0}), 0.0, 10.0), {2.0});
  // Outside the window: no roots.
  EXPECT_TRUE(FindRealRoots(Polynomial({-4.0, 2.0}), 3.0, 10.0).empty());
}

TEST(FindRealRoots, QuadraticTwoRoots) {
  // (t-1)(t-3) = 3 - 4t + t^2.
  ExpectRootsNear(FindRealRoots(Polynomial({3.0, -4.0, 1.0}), 0.0, 10.0),
                  {1.0, 3.0});
}

TEST(FindRealRoots, QuadraticNoRealRoots) {
  EXPECT_TRUE(FindRealRoots(Polynomial({1.0, 0.0, 1.0}), -10.0, 10.0)
                  .empty());
}

TEST(FindRealRoots, QuadraticDoubleRootReportedOnce) {
  // (t-2)^2.
  ExpectRootsNear(FindRealRoots(Polynomial({4.0, -4.0, 1.0}), 0.0, 10.0),
                  {2.0});
}

TEST(FindRealRoots, QuadraticCancellationStable) {
  // Large b relative to ac: classic catastrophic-cancellation case.
  // t^2 - 1e8 t + 1 has roots ~1e8 and ~1e-8.
  std::vector<double> roots =
      FindRealRoots(Polynomial({1.0, -1e8, 1.0}), -1.0, 2e8);
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_NEAR(roots[0], 1e-8, 1e-14);
  EXPECT_NEAR(roots[1], 1e8, 1.0);
}

TEST(FindRealRoots, CubicThreeRoots) {
  ExpectRootsNear(FindRealRoots(FromRoots({-2.0, 1.0, 4.0}), -10.0, 10.0),
                  {-2.0, 1.0, 4.0}, 1e-7);
}

TEST(FindRealRoots, CubicOneRealRoot) {
  // (t-1)(t^2+1) = -1 + t - t^2 + t^3.
  ExpectRootsNear(
      FindRealRoots(Polynomial({-1.0, 1.0, -1.0, 1.0}), -10.0, 10.0),
      {1.0}, 1e-7);
}

TEST(FindRealRoots, QuarticViaSturm) {
  ExpectRootsNear(
      FindRealRoots(FromRoots({-3.0, -1.0, 2.0, 5.0}), -10.0, 10.0),
      {-3.0, -1.0, 2.0, 5.0}, 1e-6);
}

TEST(FindRealRoots, SexticWithClusteredRoots) {
  ExpectRootsNear(
      FindRealRoots(FromRoots({0.5, 0.625, 0.75, 2.0, 7.0, 9.5}), 0.0,
                    10.0),
      {0.5, 0.625, 0.75, 2.0, 7.0, 9.5}, 1e-5);
}

TEST(FindRealRoots, RepeatedRootSquareFreeReduction) {
  // (t-1)^3 (t-4): Sturm needs the square-free part.
  Polynomial p = FromRoots({1.0, 1.0, 1.0, 4.0});
  ExpectRootsNear(FindRealRoots(p, -10.0, 10.0), {1.0, 4.0}, 1e-6);
}

TEST(BrentRoot, ConvergesOnBracket) {
  auto f = [](double x) { return std::cos(x) - x; };
  Result<double> r = BrentRoot(f, 0.0, 1.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 0.7390851332151607, 1e-9);
}

TEST(BrentRoot, RejectsNonBracketingInterval) {
  auto f = [](double x) { return x * x + 1.0; };
  EXPECT_FALSE(BrentRoot(f, -1.0, 1.0).ok());
}

TEST(DividePolynomials, QuotientAndRemainder) {
  // t^3 - 2t + 1 = (t^2 + t - 1)(t - 1) + 0t + 0... verify identity.
  Polynomial num({1.0, -2.0, 0.0, 1.0});
  Polynomial den({-1.0, 1.0});
  Polynomial q, r;
  DividePolynomials(num, den, &q, &r);
  EXPECT_TRUE((q * den + r).AlmostEquals(num, 1e-9));
  EXPECT_LT(r.degree(), den.degree());
}

TEST(PolynomialGcd, SharedFactor) {
  Polynomial a = FromRoots({1.0, 2.0});
  Polynomial b = FromRoots({2.0, 3.0});
  Polynomial g = PolynomialGcd(a, b);
  ASSERT_EQ(g.degree(), 1u);
  EXPECT_NEAR(FindRealRoots(g, 0.0, 10.0)[0], 2.0, 1e-9);
}

TEST(SturmSequence, CountsRoots) {
  Polynomial p = FromRoots({-1.0, 2.0, 5.0});
  auto sturm = SturmSequence(p);
  EXPECT_EQ(CountRootsInInterval(sturm, -10.0, 10.0), 3);
  EXPECT_EQ(CountRootsInInterval(sturm, 0.0, 3.0), 1);
  EXPECT_EQ(CountRootsInInterval(sturm, 6.0, 10.0), 0);
}

TEST(CmpOpHelpers, Strings) {
  EXPECT_STREQ(CmpOpToString(CmpOp::kLt), "<");
  EXPECT_STREQ(CmpOpToString(CmpOp::kNe), "<>");
}

TEST(CmpOpHelpers, FlipAndNegate) {
  EXPECT_EQ(FlipCmpOp(CmpOp::kLt), CmpOp::kGt);
  EXPECT_EQ(FlipCmpOp(CmpOp::kEq), CmpOp::kEq);
  EXPECT_EQ(NegateCmpOp(CmpOp::kLe), CmpOp::kGt);
  EXPECT_EQ(NegateCmpOp(CmpOp::kNe), CmpOp::kEq);
  EXPECT_TRUE(CmpOpIncludesEquality(CmpOp::kGe));
  EXPECT_FALSE(CmpOpIncludesEquality(CmpOp::kGt));
}

TEST(SolveComparison, LinearStrictLess) {
  // t - 5 < 0 on [0, 10): holds on [0, 5).
  Polynomial p({-5.0, 1.0});
  IntervalSet s =
      SolveComparison(p, CmpOp::kLt, Interval::ClosedOpen(0.0, 10.0));
  ASSERT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Contains(0.0));
  EXPECT_TRUE(s.Contains(4.999));
  EXPECT_FALSE(s.Contains(5.0));
}

TEST(SolveComparison, LinearNonStrictIncludesBoundary) {
  Polynomial p({-5.0, 1.0});
  IntervalSet s =
      SolveComparison(p, CmpOp::kLe, Interval::ClosedOpen(0.0, 10.0));
  EXPECT_TRUE(s.Contains(5.0));
  EXPECT_FALSE(s.Contains(5.0001));
}

TEST(SolveComparison, EqualityYieldsPoints) {
  // (t-2)(t-7) = 0.
  Polynomial p = FromRoots({2.0, 7.0});
  IntervalSet s =
      SolveComparison(p, CmpOp::kEq, Interval::Closed(0.0, 10.0));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.Contains(2.0));
  EXPECT_TRUE(s.Contains(7.0));
  EXPECT_DOUBLE_EQ(s.TotalLength(), 0.0);
}

TEST(SolveComparison, NotEqualExcludesRoots) {
  Polynomial p = FromRoots({2.0});
  IntervalSet s =
      SolveComparison(p, CmpOp::kNe, Interval::Closed(0.0, 4.0));
  EXPECT_FALSE(s.Contains(2.0));
  EXPECT_TRUE(s.Contains(1.9999));
  EXPECT_TRUE(s.Contains(2.0001));
}

TEST(SolveComparison, ZeroPolynomial) {
  Polynomial zero;
  const Interval dom = Interval::Closed(0.0, 1.0);
  EXPECT_FALSE(SolveComparison(zero, CmpOp::kEq, dom).IsEmpty());
  EXPECT_FALSE(SolveComparison(zero, CmpOp::kLe, dom).IsEmpty());
  EXPECT_TRUE(SolveComparison(zero, CmpOp::kLt, dom).IsEmpty());
  EXPECT_TRUE(SolveComparison(zero, CmpOp::kNe, dom).IsEmpty());
}

TEST(SolveComparison, ConstantPolynomial) {
  const Interval dom = Interval::Closed(0.0, 1.0);
  EXPECT_FALSE(
      SolveComparison(Polynomial({-3.0}), CmpOp::kLt, dom).IsEmpty());
  EXPECT_TRUE(
      SolveComparison(Polynomial({3.0}), CmpOp::kLt, dom).IsEmpty());
}

TEST(SolveComparison, TangencyPointIncludedForNonStrict) {
  // t^2 >= 0 everywhere; t^2 <= 0 only at t = 0.
  Polynomial p({0.0, 0.0, 1.0});
  const Interval dom = Interval::Closed(-1.0, 1.0);
  IntervalSet le = SolveComparison(p, CmpOp::kLe, dom);
  EXPECT_TRUE(le.Contains(0.0));
  EXPECT_DOUBLE_EQ(le.TotalLength(), 0.0);
  IntervalSet lt = SolveComparison(p, CmpOp::kLt, dom);
  EXPECT_TRUE(lt.IsEmpty());
  IntervalSet ge = SolveComparison(p, CmpOp::kGe, dom);
  EXPECT_DOUBLE_EQ(ge.TotalLength(), 2.0);
}

// Property sweep: SolveComparison must agree with pointwise evaluation
// away from the roots.
class SolveComparisonSweep : public ::testing::TestWithParam<CmpOp> {};

TEST_P(SolveComparisonSweep, MatchesPointwise) {
  const CmpOp op = GetParam();
  Polynomial p = FromRoots({1.5, 4.0, 8.0});
  const Interval dom = Interval::Closed(0.0, 10.0);
  IntervalSet s = SolveComparison(p, op, dom);
  for (double t = 0.05; t < 10.0; t += 0.1) {  // grid avoids exact roots
    const double v = p.Evaluate(t);
    bool expected = false;
    switch (op) {
      case CmpOp::kLt:
        expected = v < 0.0;
        break;
      case CmpOp::kLe:
        expected = v <= 0.0;
        break;
      case CmpOp::kEq:
        expected = v == 0.0;
        break;
      case CmpOp::kNe:
        expected = v != 0.0;
        break;
      case CmpOp::kGe:
        expected = v >= 0.0;
        break;
      case CmpOp::kGt:
        expected = v > 0.0;
        break;
    }
    EXPECT_EQ(s.Contains(t), expected)
        << CmpOpToString(op) << " at t=" << t << " (p=" << v << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, SolveComparisonSweep,
                         ::testing::Values(CmpOp::kLt, CmpOp::kLe,
                                           CmpOp::kEq, CmpOp::kNe,
                                           CmpOp::kGe, CmpOp::kGt));

// --- Scratch reuse ----------------------------------------------------

TEST(RootScratch, ReuseAcrossDifferingDegrees) {
  // One scratch, a mixed-degree solve sequence: high-degree Sturm solves
  // leave long chains and wide buffers behind; subsequent low-degree
  // (closed-form) and mid-degree solves must not be confused by the
  // leftover state. Every scratch result must match the allocating API.
  RootScratch scratch;
  const std::vector<Polynomial> sequence = {
      FromRoots({-3.0, -1.0, 0.5, 2.0, 4.0}),  // degree 5: Sturm path
      FromRoots({1.0, 2.0}),                   // degree 2: closed form
      FromRoots({-4.0, -2.0, 0.0, 1.0, 2.5, 3.0, 4.5}),  // degree 7
      Polynomial({-1.0, 1.0}),                 // degree 1
      FromRoots({0.0, 0.0, 1.0}),              // repeated root
      FromRoots({-3.0, -1.0, 0.5, 2.0, 4.0}),  // degree 5 again
  };
  for (size_t i = 0; i < sequence.size(); ++i) {
    const Polynomial& p = sequence[i];
    const std::vector<double> expected = FindRealRoots(p, -5.0, 5.0);
    FindRealRootsInto(p, -5.0, 5.0, &scratch);
    ASSERT_EQ(scratch.roots.size(), expected.size()) << "solve " << i;
    for (size_t r = 0; r < expected.size(); ++r) {
      EXPECT_NEAR(scratch.roots[r], expected[r], 1e-8)
          << "solve " << i << " root " << r;
    }
  }
}

TEST(RootScratch, SturmChainShrinksCleanly) {
  // A long chain followed by a short one: the reused vector must report
  // the short chain's length, not the warm capacity.
  RootScratch scratch;
  const Polynomial deep = FromRoots({-2.0, -1.0, 0.0, 1.0, 2.0, 3.0});
  SturmSequenceInto(deep, &scratch);
  const size_t deep_len = scratch.sturm.size();
  EXPECT_EQ(deep_len, SturmSequence(deep).size());

  const Polynomial shallow = FromRoots({1.0, 4.0});
  SturmSequenceInto(shallow, &scratch);
  EXPECT_LT(scratch.sturm.size(), deep_len);
  const std::vector<Polynomial> expected = SturmSequence(shallow);
  ASSERT_EQ(scratch.sturm.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(scratch.sturm[i].AlmostEquals(expected[i], 1e-9))
        << "chain entry " << i;
  }
}

TEST(RootScratch, SolveComparisonIntoMatchesAllocatingForm) {
  RootScratch scratch;
  IntervalSet out;
  const Interval domain{-5.0, 5.0};
  const std::vector<Polynomial> polys = {
      FromRoots({-1.0, 1.0, 3.0}),
      FromRoots({0.5, 2.0}),
      Polynomial({2.0}),   // constant, no roots
      Polynomial(),        // zero polynomial
      FromRoots({-4.0, -3.0, -2.0, 2.0, 3.5}),
  };
  for (const Polynomial& p : polys) {
    for (CmpOp op : {CmpOp::kLt, CmpOp::kLe, CmpOp::kEq, CmpOp::kNe,
                     CmpOp::kGe, CmpOp::kGt}) {
      const IntervalSet expected = SolveComparison(p, op, domain);
      SolveComparisonInto(p, op, domain, &scratch, &out);
      EXPECT_EQ(out, expected)
          << p.ToString() << " " << CmpOpToString(op);
    }
  }
}

}  // namespace
}  // namespace pulse
