#ifndef PULSE_MATH_BATCH_KERNELS_H_
#define PULSE_MATH_BATCH_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "util/cpu_features.h"

namespace pulse {

/// One ISA tier of the batched structure-of-arrays solver kernels.
///
/// Layout: every input is a column of `n` doubles; coefficient columns
/// are indexed low degree first (c0 = constant term). All kernels are
/// pinned **bit-identical** to the scalar closed forms in roots.cc
/// (roots_internal::LinearRoot/QuadraticRoots/CubicRoots and
/// Polynomial::Evaluate): the vector tiers use only correctly-rounded
/// IEEE-754 operations (add/sub/mul/div/sqrt, copysign as bit ops) in
/// the exact scalar operation order, and never fuse multiply-add.
/// Operations on cbrt/acos/cos (the cubic closed form) have no
/// reproducible vectorization, so `cubic_roots` is lane-scalar in every
/// tier. See docs/PERFORMANCE.md "Batched solver kernels".
struct BatchKernels {
  /// Dispatch-tier name: "scalar" | "sse2" | "neon" | "avx2". Static
  /// storage; stable for pointer comparison.
  const char* name;

  /// SoA Horner: out[i] = p_i(t[i]) where p_i has coefficient columns
  /// c[0..degree], degree <= 7 (the polynomials' inline-coefficient cap).
  /// The recurrence is pinned to Polynomial::Evaluate (acc = 0.0; top
  /// coefficient downwards: acc = acc * t + c[j][i]) — the leading
  /// 0.0 * t step matters for t = ±inf.
  void (*horner)(const double* const* c, size_t degree, const double* t,
                 double* out, size_t n);

  /// Degree-1 closed form: r0[i] = -c0[i] / c1[i].
  void (*linear_roots)(const double* c0, const double* c1, double* r0,
                       size_t n);

  /// Degree-2 closed form; count[i] in {0, 1, 2}, roots in the scalar
  /// reference's push order. Root slots beyond count[i] are 0.0.
  void (*quadratic_roots)(const double* c0, const double* c1,
                          const double* c2, double* r0, double* r1,
                          uint8_t* count, size_t n);

  /// Degree-3 closed form; count[i] in {1, 2, 3}; unused slots 0.0.
  /// Lane-scalar in every tier (see class comment).
  void (*cubic_roots)(const double* c0, const double* c1, const double* c2,
                      const double* c3, double* r0, double* r1, double* r2,
                      uint8_t* count, size_t n);
};

/// The scalar reference tier (thin loops over the roots.cc closed forms).
const BatchKernels& ScalarBatchKernels();

/// The tier for an explicit SimdLevel. Levels compiled out of this
/// binary (e.g. kAvx2 on a non-x86 build) degrade to the strongest
/// available weaker tier.
const BatchKernels& BatchKernelsFor(SimdLevel level);

/// The tier matching ActiveSimdLevel() right now — honors
/// PULSE_FORCE_SCALAR and SetSimdOverrideForTesting. One relaxed atomic
/// load; cheap enough to call per batch flush.
const BatchKernels& ActiveBatchKernels();

namespace batch_internal {
/// The AVX2 tier, or nullptr when this binary was built without the
/// AVX2 translation unit's -mavx2 flags. Defined in
/// batch_kernels_avx2.cc; callers go through BatchKernelsFor.
const BatchKernels* Avx2BatchKernelsOrNull();

/// Scalar kernel entry points, exposed so the AVX2 translation unit can
/// delegate remainder lanes to code compiled with baseline flags (the
/// -mavx2 TU must not compile scalar reference arithmetic itself).
void ScalarHorner(const double* const* c, size_t degree, const double* t,
                  double* out, size_t n);
void ScalarLinearRoots(const double* c0, const double* c1, double* r0,
                       size_t n);
void ScalarQuadraticRoots(const double* c0, const double* c1,
                          const double* c2, double* r0, double* r1,
                          uint8_t* count, size_t n);
void ScalarCubicRoots(const double* c0, const double* c1, const double* c2,
                      const double* c3, double* r0, double* r1, double* r2,
                      uint8_t* count, size_t n);
}  // namespace batch_internal

}  // namespace pulse

#endif  // PULSE_MATH_BATCH_KERNELS_H_
