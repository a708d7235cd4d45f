// Truncated Poisson weights for uniformisation (Fox & Glynn, 1988).
//
// Uniformisation expresses the transient distribution of a CTMC as a
// Poisson-weighted sum of DTMC powers:
//     pi(t) = sum_n  Pois(q t; n) * pi(0) P^n.
// This module computes the truncation window [left, right] and the weights
// Pois(lambda; n), n in [left, right], such that the dropped probability
// mass is below a caller-supplied epsilon.
//
// The implementation recurses outward from the mode (where the pmf peaks) in
// scaled arithmetic, then normalises; this avoids the catastrophic underflow
// of starting the classic recursion at e^{-lambda} for lambda beyond ~700.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <vector>

#include "kibamrm/common/thread_annotations.hpp"

namespace kibamrm::markov {

/// Truncated Poisson distribution: weights[i] approximates
/// Pois(lambda; left + i), and sum(weights) == 1 after normalisation.
struct PoissonWindow {
  std::uint64_t left = 0;
  std::uint64_t right = 0;
  std::vector<double> weights;

  std::size_t size() const { return weights.size(); }

  /// Weight of n, or 0 outside the window.
  double weight(std::uint64_t n) const {
    if (n < left || n > right) return 0.0;
    return weights[static_cast<std::size_t>(n - left)];
  }
};

/// Computes the truncation window for Poisson(lambda) with total dropped
/// mass at most epsilon (split between both tails).  lambda == 0 yields the
/// degenerate window {0} with weight 1.  Throws InvalidArgument for lambda
/// negative, NaN, infinite or at least 2^53, or epsilon outside (0, 1).
PoissonWindow fox_glynn(double lambda, double epsilon);

/// Memoised Fox-Glynn windows, keyed by (lambda, epsilon).
///
/// The incremental transient solvers compute one window per time increment;
/// on the uniform time grids every curve driver uses, all increments share
/// (up to round-off in t_{k+1} - t_k) a single lambda, so the window is
/// worth computing exactly once per curve.  Lambdas within a relative
/// 1e-9 of a cached entry are treated as equal -- uniform_grid() produces
/// increments that differ only in the last few ulps, and a Poisson window
/// is insensitive to lambda perturbations at that scale (it shifts by far
/// less than one term).  Epsilons must match exactly.
///
/// Entries are kept most-recently-used first and the cache is capped, so a
/// solver hammering one or two lambdas stays O(1) per lookup while a sweep
/// over many horizons cannot grow the cache without bound.
class UniformizationPlan {
 public:
  /// `lambda_slack` is the relative lambda tolerance for cache hits: the
  /// default suits the transient solvers' uniform grids (see above).
  /// Pass 0 for exact matching when the consumer's result is sensitive
  /// to lambda at the epsilon scale (poisson_tail does).
  explicit UniformizationPlan(std::size_t capacity = 16,
                              double lambda_slack = 1e-9);

  /// The Fox-Glynn window for (lambda, epsilon): cached when one matches,
  /// computed and inserted otherwise.  The shared_ptr *pins* the window:
  /// it stays valid for as long as the caller holds it, even after the
  /// LRU evicts the entry.  (The previous reference-returning API dangled
  /// as soon as `capacity` distinct lookups pushed the entry out -- a held
  /// window silently read freed weights.)
  std::shared_ptr<const PoissonWindow> window(double lambda, double epsilon);

  /// Lifetime counters (never reset by eviction); callers that want
  /// per-solve numbers difference them around the solve.
  std::uint64_t windows_computed() const { return computed_; }
  std::uint64_t windows_reused() const { return reused_; }
  std::size_t cached_windows() const { return entries_.size(); }

  void clear() { entries_.clear(); }

 private:
  struct Entry {
    double lambda;
    double epsilon;
    std::shared_ptr<const PoissonWindow> window;
  };

  // KIBAMRM_EXTERNALLY_SYNCHRONIZED: every plan is single-owner -- a
  // member of one solver/backend queried from its solve thread, or the
  // poisson_tail thread_local.  window() splices the LRU list on every
  // hit, so a *shared* plan would race on reads too; sharing one across
  // threads (the ROADMAP daemon's cross-request cache) requires a
  // Mutex-guarded wrapper, not this class.  The returned shared_ptr is
  // safe to hand across threads once obtained (the pointee is const).
  std::list<Entry> entries_ KIBAMRM_EXTERNALLY_SYNCHRONIZED(
      "single-owner cache; LRU splice mutates on reads");
  std::size_t capacity_;
  double lambda_slack_;
  std::uint64_t computed_ = 0;
  std::uint64_t reused_ = 0;
};

/// Poisson pmf Pois(lambda; n), computed in log space (accurate for large
/// lambda and n; used for cross-checking the window in tests).
double poisson_pmf(double lambda, std::uint64_t n);

/// Upper tail Pr{Poisson(lambda) >= n}.  This equals the Erlang-n CDF at
/// lambda = rate * t and is used to validate the Erlang workload models.
/// The truncation window is served from a per-thread UniformizationPlan
/// (sweeps evaluate many n at one lambda; recomputing the window per call
/// dominated the cost), at the caller's `epsilon` instead of the previous
/// hard-coded 1e-16 (still the default).
double poisson_tail(double lambda, std::uint64_t n, double epsilon = 1e-16);

}  // namespace kibamrm::markov
