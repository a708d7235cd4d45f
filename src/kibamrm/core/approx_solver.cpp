#include "kibamrm/core/approx_solver.hpp"

#include <algorithm>
#include <utility>

namespace kibamrm::core {

MarkovianApproximation::MarkovianApproximation(const KibamRmModel& model,
                                               ApproximationOptions options)
    : options_(std::move(options)),
      expanded_(build_expanded_chain(model, options_.delta,
                                     parse_state_ordering(options_.reorder))),
      backend_(engine::make_backend(
          options_.engine,
          {.epsilon = options_.epsilon,
           .threads = options_.threads,
           // The curve only needs the streamed Pr{empty} values, not one
           // distribution copy per time point.
           .collect_distributions = false,
           .steady_state_detection = options_.steady_state_detection})),
      stats_(approximation_stats(expanded_, options_.engine)) {}

LifetimeCurve MarkovianApproximation::solve(const std::vector<double>& times) {
  LifetimeCurve curve = solve_empty_probability_curve(expanded_, *backend_,
                                                      times, options_.epsilon);
  stats_ = approximation_stats(expanded_, options_.engine,
                               backend_->last_stats());
  return curve;
}

ApproximationStats approximation_stats(const ExpandedChain& expanded,
                                       const std::string& engine,
                                       const engine::BackendStats& backend) {
  ApproximationStats stats;
  static_cast<engine::BackendStats&>(stats) = backend;
  stats.uniformization_iterations = backend.iterations;
  stats.expanded_states = expanded.grid.state_count();
  stats.generator_nonzeros = expanded.chain.generator().nonzeros();
  stats.engine = engine;
  stats.reorder = state_ordering_name(expanded.ordering);
  return stats;
}

LifetimeCurve solve_empty_probability_curve(const ExpandedChain& expanded,
                                            engine::TransientBackend& backend,
                                            const std::vector<double>& times,
                                            double epsilon) {
  std::vector<double> probabilities(times.size(), 0.0);
  backend.solve(expanded.chain, expanded.initial, times,
                [&](std::size_t index, double /*t*/,
                    const std::vector<double>& pi) {
                  probabilities[index] = expanded.empty_probability(pi);
                });
  // The iterative engines can leave round-off outside [0, 1] and small
  // CDF dips at the scale of their configured tolerance (with head-room
  // for accumulation over the curve); clamp that, anything larger is a
  // bug and throws.
  const double tolerance = std::max(1e-6, 10.0 * epsilon);
  sanitize_probabilities(probabilities, tolerance);
  return LifetimeCurve(times, std::move(probabilities), tolerance);
}

LifetimeCurve approximate_lifetime_distribution(
    const KibamRmModel& model, double delta, const std::vector<double>& times,
    const std::string& engine) {
  MarkovianApproximation solver(model, {.delta = delta, .engine = engine});
  return solver.solve(times);
}

}  // namespace kibamrm::core
