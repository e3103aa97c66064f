#ifndef PULSE_MODEL_FITTING_H_
#define PULSE_MODEL_FITTING_H_

#include <vector>

#include "math/polynomial.h"
#include "util/result.h"

namespace pulse {

/// A (time, value) sample of a modeled attribute.
struct Sample {
  double t = 0.0;
  double value = 0.0;
};

/// Least-squares fit of a degree-`degree` polynomial to `samples`
/// (Vandermonde normal equations). Needs at least degree+1 samples.
/// Times are used as-is; callers who want segment-local coefficients
/// shift the samples before fitting.
Result<Polynomial> FitPolynomial(const std::vector<Sample>& samples,
                                 size_t degree);

/// Maximum absolute residual of `p` over `samples`: the paper's absolute
/// error metric between a model and the tuples it represents (Section IV).
double MaxAbsResidual(const Polynomial& p, const std::vector<Sample>& samples);

/// Root-mean-square residual of `p` over `samples`.
double RmsResidual(const Polynomial& p, const std::vector<Sample>& samples);

/// Convenience: best constant fit (the mean value).
Result<Polynomial> FitConstant(const std::vector<Sample>& samples);

/// Convenience: straight-line fit.
Result<Polynomial> FitLine(const std::vector<Sample>& samples);

}  // namespace pulse

#endif  // PULSE_MODEL_FITTING_H_
