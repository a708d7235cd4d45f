#include "kibamrm/markov/fox_glynn.hpp"

#include <algorithm>
#include <cmath>

#include "kibamrm/common/error.hpp"

namespace kibamrm::markov {

namespace {

/// ln(n!) via lgamma.
double log_factorial(std::uint64_t n) {
  return std::lgamma(static_cast<double>(n) + 1.0);
}

}  // namespace

double poisson_pmf(double lambda, std::uint64_t n) {
  KIBAMRM_REQUIRE(lambda >= 0.0, "poisson_pmf: lambda must be >= 0");
  if (lambda == 0.0) return n == 0 ? 1.0 : 0.0;
  const double log_p = -lambda +
                       static_cast<double>(n) * std::log(lambda) -
                       log_factorial(n);
  return std::exp(log_p);
}

double poisson_tail(double lambda, std::uint64_t n, double epsilon) {
  KIBAMRM_REQUIRE(lambda >= 0.0, "poisson_tail: lambda must be >= 0");
  if (n == 0) return 1.0;
  if (lambda == 0.0) return 0.0;
  // The Erlang validation sweeps evaluate many thresholds n at one lambda;
  // a per-thread plan cache turns the repeated Fox-Glynn recursion into
  // one window per (lambda, epsilon).  thread_local keeps the fast path
  // lock-free under the batched solvers.  Lambda matching is *exact*
  // (slack 0): the tail is lambda-sensitive at the pmf scale, so the
  // grid-reuse slack of the transient solvers would hand back a
  // neighbouring lambda's tail, far outside the requested epsilon.
  static thread_local UniformizationPlan windows(16, 0.0);
  const std::shared_ptr<const PoissonWindow> window =
      windows.window(lambda, epsilon);
  double below = 0.0;  // Pr{N < n}
  double above = 0.0;  // Pr{N >= n}
  for (std::uint64_t m = window->left; m <= window->right; ++m) {
    const double w = window->weight(m);
    if (m < n) {
      below += w;
    } else {
      above += w;
    }
  }
  // Both tails of the window were dropped symmetrically; pick the smaller
  // accumulated side to avoid cancellation.
  return above <= below ? above : 1.0 - below;
}

PoissonWindow fox_glynn(double lambda, double epsilon) {
  KIBAMRM_REQUIRE(lambda >= 0.0, "fox_glynn: lambda must be >= 0");
  // The mode is an integer and the upward walk stops once n + 1 exceeds
  // lambda; past 2^53 doubles no longer step by one, so neither holds.
  KIBAMRM_REQUIRE(lambda < 0x1p53,
                  "fox_glynn: lambda must be finite and below 2^53");
  KIBAMRM_REQUIRE(epsilon > 0.0 && epsilon < 1.0,
                  "fox_glynn: epsilon must lie in (0,1)");

  PoissonWindow window;
  if (lambda == 0.0) {
    window.left = window.right = 0;
    window.weights = {1.0};
    return window;
  }

  const auto mode = static_cast<std::uint64_t>(std::floor(lambda));

  // Unnormalised weights relative to the mode (w[mode] = 1).  Recursion:
  //   w(n-1) = w(n) * n / lambda          (downward)
  //   w(n+1) = w(n) * lambda / (n + 1)    (upward)
  // Terms decay monotonically away from the mode, so we extend each side
  // until the running term is negligible relative to the accumulated sum.
  std::vector<double> down;  // weights at mode-1, mode-2, ...
  std::vector<double> up;    // weights at mode+1, mode+2, ...
  const double tail_cut = epsilon / 8.0;  // conservative per-side cut

  double total = 1.0;
  double w = 1.0;
  for (std::uint64_t n = mode; n > 0; --n) {
    w *= static_cast<double>(n) / lambda;
    down.push_back(w);
    total += w;
    // Geometric-style bound: remaining tail < w * n / (lambda? ) -- use the
    // simple criterion "term small vs running total" with a safety factor on
    // the number of potentially remaining terms.
    if (w < tail_cut * total / (static_cast<double>(n) + 1.0)) break;
  }
  w = 1.0;
  for (std::uint64_t n = mode + 1;; ++n) {
    w *= lambda / static_cast<double>(n);
    up.push_back(w);
    total += w;
    if (static_cast<double>(n + 1) > lambda) {
      // Terms now decay geometrically with ratio rho < 1; the remaining
      // upper tail is bounded by w * rho / (1 - rho).
      const double rho = lambda / static_cast<double>(n + 1);
      if (w * rho / (1.0 - rho) < tail_cut * total) break;
    }
    if (w < 1e-300) break;  // hard underflow guard
  }

  window.left = mode - down.size();
  window.right = mode + up.size();
  window.weights.resize(down.size() + 1 + up.size());
  for (std::size_t i = 0; i < down.size(); ++i) {
    window.weights[down.size() - 1 - i] = down[i];
  }
  window.weights[down.size()] = 1.0;
  for (std::size_t i = 0; i < up.size(); ++i) {
    window.weights[down.size() + 1 + i] = up[i];
  }

  // Normalise so the window sums to exactly 1 (this also absorbs the true
  // normalisation constant e^{-lambda} lambda^mode / mode!).
  const double inv_total = 1.0 / total;
  for (double& weight : window.weights) weight *= inv_total;
  return window;
}

UniformizationPlan::UniformizationPlan(std::size_t capacity,
                                       double lambda_slack)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      lambda_slack_(lambda_slack) {
  KIBAMRM_REQUIRE(lambda_slack_ >= 0.0,
                  "UniformizationPlan: lambda slack must be >= 0");
}

std::shared_ptr<const PoissonWindow> UniformizationPlan::window(
    double lambda, double epsilon) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->epsilon == epsilon &&
        std::abs(it->lambda - lambda) <=
            lambda_slack_ * std::max(1.0, std::abs(it->lambda))) {
      ++reused_;
      entries_.splice(entries_.begin(), entries_, it);  // move to MRU slot
      return entries_.front().window;
    }
  }
  ++computed_;
  // shared ownership pins the window for callers that outlive the entry:
  // eviction below (and clear()) only drops the cache's reference.
  entries_.push_front({lambda, epsilon,
                       std::make_shared<const PoissonWindow>(
                           fox_glynn(lambda, epsilon))});
  if (entries_.size() > capacity_) entries_.pop_back();
  return entries_.front().window;
}

}  // namespace kibamrm::markov
