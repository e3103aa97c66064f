// Bit-identity contract of the batched SoA solver kernels: every vector
// tier available on this host must produce byte-for-byte the results of
// the scalar reference (which itself is pinned to roots.cc), across all
// degrees, every remainder lane count, and adversarial coefficient
// values (NaN, ±inf, denormals, signed zeros, roots at endpoints).
// Comparisons are on bit patterns, never epsilon closeness.

#include "math/batch_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/equation_system.h"
#include "math/polynomial.h"
#include "math/roots.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace pulse {
namespace {

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// Distinct kernel tables reachable on this host (scalar always; vector
// tiers only when the hardware supports them, so no illegal
// instructions on weaker machines).
std::vector<const BatchKernels*> TiersUnderTest() {
  std::vector<const BatchKernels*> tiers = {&ScalarBatchKernels()};
  const int detected = static_cast<int>(DetectedSimdLevel());
  for (SimdLevel level :
       {SimdLevel::kSse2, SimdLevel::kNeon, SimdLevel::kAvx2}) {
    if (static_cast<int>(level) > detected) continue;
    const BatchKernels* k = &BatchKernelsFor(level);
    bool seen = false;
    for (const BatchKernels* t : tiers) seen = seen || (t == k);
    if (!seen) tiers.push_back(k);
  }
  return tiers;
}

// Adversarial values woven into every random column.
const double kSpecials[] = {
    0.0,
    -0.0,
    std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::denorm_min(),
    -std::numeric_limits<double>::denorm_min(),
    std::numeric_limits<double>::min(),
    std::numeric_limits<double>::max(),
    1.0,
    -1.0,
    1e-15,
    -3.5,
};

std::vector<double> RandomColumn(Rng* rng, size_t n) {
  std::vector<double> col(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(0.25)) {
      col[i] = kSpecials[rng->UniformInt(
          0, static_cast<int64_t>(std::size(kSpecials)) - 1)];
    } else {
      // Span many magnitudes so cancellation/overflow paths get hit.
      const double mag = std::pow(10.0, rng->Uniform(-12.0, 12.0));
      col[i] = rng->Uniform(-1.0, 1.0) * mag;
    }
  }
  return col;
}

TEST(BatchKernelsTest, HornerMatchesScalarForAllDegreesAndRemainders) {
  Rng rng(7);
  const auto tiers = TiersUnderTest();
  for (size_t degree = 0; degree <= 7; ++degree) {
    // n from 1 to 2 * max lane width + 1 covers every remainder count
    // for 2-lane (SSE2/NEON) and 4-lane (AVX2) kernels.
    for (size_t n = 1; n <= 9; ++n) {
      std::vector<std::vector<double>> cols;
      std::vector<const double*> col_ptrs;
      for (size_t j = 0; j <= degree; ++j) {
        cols.push_back(RandomColumn(&rng, n));
        col_ptrs.push_back(cols.back().data());
      }
      const std::vector<double> t = RandomColumn(&rng, n);
      std::vector<double> expected(n);
      ScalarBatchKernels().horner(col_ptrs.data(), degree, t.data(),
                                  expected.data(), n);
      for (const BatchKernels* k : tiers) {
        std::vector<double> got(n, 12345.0);
        k->horner(col_ptrs.data(), degree, t.data(), got.data(), n);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(Bits(expected[i]), Bits(got[i]))
              << k->name << " degree=" << degree << " n=" << n
              << " lane=" << i << " t=" << t[i];
        }
      }
    }
  }
}

TEST(BatchKernelsTest, HornerMatchesPolynomialEvaluate) {
  Rng rng(11);
  for (size_t degree = 0; degree <= 7; ++degree) {
    const size_t n = 8;
    std::vector<std::vector<double>> cols;
    std::vector<const double*> col_ptrs;
    for (size_t j = 0; j <= degree; ++j) {
      cols.push_back(RandomColumn(&rng, n));
      // Finite top coefficient above the trim epsilon so Polynomial
      // keeps the intended degree.
      if (j == degree) {
        for (double& v : cols.back()) {
          if (!std::isfinite(v) ||
              std::abs(v) <= Polynomial::kCoefficientEpsilon) {
            v = 1.5;
          }
        }
      }
      col_ptrs.push_back(cols.back().data());
    }
    const std::vector<double> t = RandomColumn(&rng, n);
    std::vector<double> got(n);
    ScalarBatchKernels().horner(col_ptrs.data(), degree, t.data(),
                                got.data(), n);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> coeffs(degree + 1);
      for (size_t j = 0; j <= degree; ++j) coeffs[j] = cols[j][i];
      const Polynomial p(coeffs.data(), coeffs.size());
      ASSERT_EQ(p.degree(), degree);
      EXPECT_EQ(Bits(p.Evaluate(t[i])), Bits(got[i]))
          << "degree=" << degree << " lane=" << i;
    }
  }
}

TEST(BatchKernelsTest, LinearRootsBitIdentical) {
  Rng rng(13);
  const auto tiers = TiersUnderTest();
  for (size_t n = 1; n <= 9; ++n) {
    for (int rep = 0; rep < 50; ++rep) {
      const std::vector<double> c0 = RandomColumn(&rng, n);
      const std::vector<double> c1 = RandomColumn(&rng, n);
      std::vector<double> expected(n);
      ScalarBatchKernels().linear_roots(c0.data(), c1.data(),
                                        expected.data(), n);
      for (const BatchKernels* k : tiers) {
        std::vector<double> got(n, 777.0);
        k->linear_roots(c0.data(), c1.data(), got.data(), n);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(Bits(expected[i]), Bits(got[i]))
              << k->name << " n=" << n << " lane=" << i << " c0=" << c0[i]
              << " c1=" << c1[i];
        }
      }
    }
  }
}

void CheckQuadraticBatch(const std::vector<double>& c0,
                         const std::vector<double>& c1,
                         const std::vector<double>& c2,
                         const std::string& tag) {
  const size_t n = c0.size();
  std::vector<double> er0(n), er1(n);
  std::vector<uint8_t> ecount(n);
  ScalarBatchKernels().quadratic_roots(c0.data(), c1.data(), c2.data(),
                                       er0.data(), er1.data(),
                                       ecount.data(), n);
  // Scalar reference honors the unused-slot contract.
  for (size_t i = 0; i < n; ++i) {
    if (ecount[i] < 2) {
      EXPECT_EQ(Bits(er1[i]), Bits(0.0)) << tag << i;
    }
    if (ecount[i] < 1) {
      EXPECT_EQ(Bits(er0[i]), Bits(0.0)) << tag << i;
    }
  }
  for (const BatchKernels* k : TiersUnderTest()) {
    std::vector<double> r0(n, 777.0), r1(n, 777.0);
    std::vector<uint8_t> count(n, 99);
    k->quadratic_roots(c0.data(), c1.data(), c2.data(), r0.data(),
                       r1.data(), count.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ecount[i], count[i])
          << tag << k->name << " lane=" << i << " c=(" << c0[i] << ","
          << c1[i] << "," << c2[i] << ")";
      EXPECT_EQ(Bits(er0[i]), Bits(r0[i]))
          << tag << k->name << " lane=" << i << " c=(" << c0[i] << ","
          << c1[i] << "," << c2[i] << ")";
      EXPECT_EQ(Bits(er1[i]), Bits(r1[i]))
          << tag << k->name << " lane=" << i << " c=(" << c0[i] << ","
          << c1[i] << "," << c2[i] << ")";
    }
  }
}

TEST(BatchKernelsTest, QuadraticRootsBitIdenticalRandom) {
  Rng rng(17);
  for (size_t n = 1; n <= 9; ++n) {
    for (int rep = 0; rep < 50; ++rep) {
      CheckQuadraticBatch(RandomColumn(&rng, n), RandomColumn(&rng, n),
                          RandomColumn(&rng, n), "random ");
    }
  }
}

TEST(BatchKernelsTest, QuadraticRootsBitIdenticalCraftedBranches) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double den = std::numeric_limits<double>::denorm_min();
  // One lane per scalar branch: disc < 0, disc == 0 (double root),
  // disc == -0.0, disc > 0 both root orders, NaN disc, inf coefficients,
  // denormal leading coefficient, signed-zero b.
  const std::vector<double> c0 = {1.0, 1.0, 0.0, -2.0, 3.0, nan, 1.0,
                                  den, -0.0, 4.0, 0.0};
  const std::vector<double> c1 = {0.0, -2.0, 0.0, 1.0, -7.0, 1.0, inf,
                                  1.0, 0.0, -4.0, -0.0};
  const std::vector<double> c2 = {1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0,
                                  den, 1.0, 1.0, 1.0};
  CheckQuadraticBatch(c0, c1, c2, "crafted ");
}

TEST(BatchKernelsTest, CubicRootsBitIdentical) {
  Rng rng(19);
  const auto tiers = TiersUnderTest();
  for (size_t n = 1; n <= 9; ++n) {
    const std::vector<double> c0 = RandomColumn(&rng, n);
    const std::vector<double> c1 = RandomColumn(&rng, n);
    const std::vector<double> c2 = RandomColumn(&rng, n);
    const std::vector<double> c3 = RandomColumn(&rng, n);
    std::vector<double> er0(n), er1(n), er2(n);
    std::vector<uint8_t> ecount(n);
    ScalarBatchKernels().cubic_roots(c0.data(), c1.data(), c2.data(),
                                     c3.data(), er0.data(), er1.data(),
                                     er2.data(), ecount.data(), n);
    for (const BatchKernels* k : tiers) {
      std::vector<double> r0(n), r1(n), r2(n);
      std::vector<uint8_t> count(n);
      k->cubic_roots(c0.data(), c1.data(), c2.data(), c3.data(), r0.data(),
                     r1.data(), r2.data(), count.data(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ecount[i], count[i]) << k->name << " lane=" << i;
        EXPECT_EQ(Bits(er0[i]), Bits(r0[i])) << k->name << " lane=" << i;
        EXPECT_EQ(Bits(er1[i]), Bits(r1[i])) << k->name << " lane=" << i;
        EXPECT_EQ(Bits(er2[i]), Bits(r2[i])) << k->name << " lane=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the batched SolveSystemsInto gather step must yield interval
// sets bit-identical to the forced-scalar dispatch, including roots that
// land exactly on domain endpoints.
// ---------------------------------------------------------------------------

void ExpectBitIdenticalSets(const IntervalSet& a, const IntervalSet& b,
                            const std::string& tag) {
  ASSERT_EQ(a.size(), b.size()) << tag;
  for (size_t i = 0; i < a.size(); ++i) {
    const Interval& x = a.intervals()[i];
    const Interval& y = b.intervals()[i];
    EXPECT_EQ(Bits(x.lo), Bits(y.lo)) << tag << " interval " << i;
    EXPECT_EQ(Bits(x.hi), Bits(y.hi)) << tag << " interval " << i;
    EXPECT_EQ(x.lo_open, y.lo_open) << tag << " interval " << i;
    EXPECT_EQ(x.hi_open, y.hi_open) << tag << " interval " << i;
  }
}

TEST(BatchKernelsTest, SolveSystemsBitIdenticalAcrossDispatch) {
  Rng rng(23);
  const CmpOp ops[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kEq,
                       CmpOp::kNe, CmpOp::kGe, CmpOp::kGt};
  std::vector<EquationSystemTask> tasks;
  for (int i = 0; i < 200; ++i) {
    EquationSystemTask task;
    task.domain = Interval{rng.Uniform(-5.0, 0.0), rng.Uniform(0.0, 5.0),
                           rng.Bernoulli(0.2), rng.Bernoulli(0.2)};
    const int rows = static_cast<int>(rng.UniformInt(1, 3));
    for (int r = 0; r < rows; ++r) {
      const int degree = static_cast<int>(rng.UniformInt(0, 4));
      std::vector<double> coeffs(degree + 1);
      for (double& c : coeffs) c = rng.Uniform(-4.0, 4.0);
      DifferenceEquation row;
      row.diff = Polynomial(coeffs.data(), coeffs.size());
      row.op = ops[rng.UniformInt(0, 5)];
      task.system.AddRow(std::move(row));
    }
    tasks.push_back(std::move(task));
  }
  // Roots exactly at domain endpoints: (t - lo) * (t - hi) over [lo, hi].
  for (const CmpOp op : ops) {
    EquationSystemTask task;
    task.domain = Interval{-2.0, 3.0, false, false};
    DifferenceEquation row;
    row.diff = Polynomial{-6.0, -1.0, 1.0};  // (t + 2)(t - 3)
    row.op = op;
    task.system.AddRow(std::move(row));
    tasks.push_back(std::move(task));
    EquationSystemTask tangent;
    tangent.domain = Interval{0.0, 4.0, false, false};
    DifferenceEquation trow;
    trow.diff = Polynomial{4.0, -4.0, 1.0};  // (t - 2)^2
    trow.op = op;
    tangent.system.AddRow(std::move(trow));
    tasks.push_back(std::move(tangent));
  }

  SetSimdOverrideForTesting(SimdLevel::kScalar);
  std::vector<IntervalSet> scalar_out;
  SolveSystemsInto(tasks.data(), tasks.size(), &scalar_out);
  SetSimdOverrideForTesting(std::nullopt);
  std::vector<IntervalSet> simd_out;
  SolveSystemsInto(tasks.data(), tasks.size(), &simd_out);

  ASSERT_EQ(scalar_out.size(), simd_out.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    ExpectBitIdenticalSets(scalar_out[i], simd_out[i],
                           "task " + std::to_string(i));
  }
}

TEST(BatchKernelsTest, DispatchHonorsOverride) {
  SetSimdOverrideForTesting(SimdLevel::kScalar);
  EXPECT_STREQ("scalar", ActiveBatchKernels().name);
  EXPECT_EQ(SimdLevel::kScalar, ActiveSimdLevel());
  SetSimdOverrideForTesting(std::nullopt);
  EXPECT_STREQ(SimdLevelName(ActiveSimdLevel()), ActiveBatchKernels().name);
  // Requesting a tier above the hardware clamps instead of crashing.
  SetSimdOverrideForTesting(SimdLevel::kAvx2);
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(DetectedSimdLevel()));
  SetSimdOverrideForTesting(std::nullopt);
}

}  // namespace
}  // namespace pulse
