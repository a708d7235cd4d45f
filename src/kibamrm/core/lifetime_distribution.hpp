// Battery lifetime distribution curves.
//
// All solvers report the same shape of result: the probability that the
// battery is already empty at each of a set of time points, i.e. the CDF of
// the lifetime L = min{t | Y1(t) = 0} sampled on a grid (exactly what the
// paper's Figs. 7-11 plot).
#pragma once

#include <vector>

namespace kibamrm::core {

class LifetimeCurve {
 public:
  /// `times` ascending; `probabilities` in [0,1], one per time point.
  /// `monotonicity_tolerance` permits the small dips numerical solvers
  /// produce; larger violations indicate a bug and throw.
  LifetimeCurve(std::vector<double> times, std::vector<double> probabilities,
                double monotonicity_tolerance = 1e-6);

  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& probabilities() const { return probs_; }
  std::size_t size() const { return times_.size(); }

  /// CDF value at time t, linearly interpolated; 0 before the grid.  Past
  /// the grid the last value is held.
  double probability_at(double t) const;

  /// Smallest grid-interpolated time with CDF >= p; throws NumericalError
  /// if the curve never reaches p (horizon too short).
  double quantile(double p) const;

  /// Median lifetime, quantile(0.5).
  double median() const { return quantile(0.5); }

  /// Mean lifetime estimated as integral of the survival function over the
  /// grid, assuming the curve starts at probability ~0 and ends at ~1;
  /// `complete()` tells whether that assumption holds to the tolerance.
  double mean_estimate() const;
  bool complete(double tolerance = 1e-3) const;

  /// Largest absolute CDF difference to another curve evaluated on this
  /// curve's grid (interpolating the other curve).
  double max_difference(const LifetimeCurve& other) const;

 private:
  std::vector<double> times_;
  std::vector<double> probs_;
};

/// An evenly spaced time grid [start, end] with `points` >= 2 entries;
/// the shared helper benches use to sample curves.
std::vector<double> uniform_grid(double start, double end, std::size_t points);

/// Clamps solver round-off out of probability values: entries within
/// `tolerance` outside [0, 1] are snapped onto the interval; larger
/// violations indicate a solver bug and throw InvalidArgument.  The
/// iterative transient engines (uniformisation truncation, Krylov local
/// error) legitimately produce such dust at their tolerance scale.
void sanitize_probabilities(std::vector<double>& probabilities,
                            double tolerance);

}  // namespace kibamrm::core
