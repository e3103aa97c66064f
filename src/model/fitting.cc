#include "model/fitting.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "math/linear_system.h"
#include "math/matrix.h"

namespace pulse {

Result<Polynomial> FitPolynomial(const std::vector<Sample>& samples,
                                 size_t degree) {
  const size_t n = samples.size();
  const size_t cols = degree + 1;
  if (n < cols) {
    return Status::InvalidArgument(
        "FitPolynomial: need at least degree+1 samples");
  }
  // Vandermonde design matrix: row i is [1, t_i, t_i^2, ...].
  Matrix a(n, cols);
  std::vector<double> b(n);
  for (size_t i = 0; i < n; ++i) {
    double p = 1.0;
    for (size_t j = 0; j < cols; ++j) {
      a.At(i, j) = p;
      p *= samples[i].t;
    }
    b[i] = samples[i].value;
  }
  PULSE_ASSIGN_OR_RETURN(std::vector<double> coeffs,
                         SolveLeastSquares(a, b));
  return Polynomial(std::move(coeffs));
}

double MaxAbsResidual(const Polynomial& p,
                      const std::vector<Sample>& samples) {
  double max_abs = 0.0;
  for (const Sample& s : samples) {
    max_abs = std::max(max_abs, std::abs(p.Evaluate(s.t) - s.value));
  }
  return max_abs;
}

double RmsResidual(const Polynomial& p, const std::vector<Sample>& samples) {
  if (samples.empty()) return 0.0;
  double acc = 0.0;
  for (const Sample& s : samples) {
    const double r = p.Evaluate(s.t) - s.value;
    acc += r * r;
  }
  return std::sqrt(acc / static_cast<double>(samples.size()));
}

Result<Polynomial> FitConstant(const std::vector<Sample>& samples) {
  return FitPolynomial(samples, 0);
}

Result<Polynomial> FitLine(const std::vector<Sample>& samples) {
  return FitPolynomial(samples, 1);
}

}  // namespace pulse
