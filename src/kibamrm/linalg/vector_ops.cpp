#include "kibamrm/linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "kibamrm/common/error.hpp"
#include "kibamrm/linalg/kernels.hpp"

namespace kibamrm::linalg {

double sum(const std::vector<double>& v) {
  // Kahan summation: uniformisation adds ~1e5 tiny Poisson-weighted terms,
  // plain accumulation loses digits we later compare against 1.
  double total = 0.0;
  double carry = 0.0;
  for (double x : v) {
    const double y = x - carry;
    const double t = total + y;
    carry = (t - total) - y;
    total = t;
  }
  return total;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  KIBAMRM_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  // Dispatched fixed-block pairwise kernel: SIMD when available, and a
  // result that no longer depends on which tier ran (see kernels.hpp).
  return kernels::dot(a.data(), b.data(), a.size());
}

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  KIBAMRM_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  kernels::axpy(alpha, x.data(), y.data(), x.size());
}

void scale(std::vector<double>& v, double alpha) {
  kernels::scale(v.data(), alpha, v.size());
}

void fill(std::vector<double>& v, double value) {
  std::fill(v.begin(), v.end(), value);
}

double linf_distance(const std::vector<double>& a,
                     const std::vector<double>& b) {
  KIBAMRM_REQUIRE(a.size() == b.size(), "linf_distance: size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

double linf_norm(const std::vector<double>& v) {
  double worst = 0.0;
  for (double x : v) worst = std::max(worst, std::abs(x));
  return worst;
}

double l1_norm(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += std::abs(x);
  return total;
}

double normalize_probability(std::vector<double>& v) {
  const double total = sum(v);
  if (!(total > 0.0)) {
    throw NumericalError("normalize_probability: vector sum is not positive");
  }
  const double alpha = 1.0 / total;
  scale(v, alpha);
  return alpha;
}

bool is_probability_vector(const std::vector<double>& v, double eps) {
  for (double x : v) {
    if (x < -eps || x > 1.0 + eps) return false;
  }
  return std::abs(sum(v) - 1.0) <= eps;
}

}  // namespace kibamrm::linalg
