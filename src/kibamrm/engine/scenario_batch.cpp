#include "kibamrm/engine/scenario_batch.hpp"

#include <chrono>
#include <memory>

#include "kibamrm/core/expanded_ctmc.hpp"
#include "kibamrm/engine/plan_cache.hpp"
#include "kibamrm/engine/transient_backend.hpp"

namespace kibamrm::engine {

namespace {

/// Backend instance one pool lane reuses across all scenarios it picks up
/// (its internal spmv scratch persists between solve() calls).
struct LaneScratch {
  std::unique_ptr<TransientBackend> backend;
};

}  // namespace

ScenarioBatch::ScenarioBatch(ScenarioBatchOptions options)
    : options_(std::move(options)), pool_(options_.threads) {
  // Fail on unknown engine names at construction, not in the middle of a
  // running batch.  Name check only: instantiating a backend here would
  // spin up (and discard) a whole thread pool for engine = "parallel".
  if (!is_backend_name(options_.engine)) {
    (void)make_backend(options_.engine);  // throws, listing the choices
  }
}

std::vector<ScenarioResult> ScenarioBatch::solve_all(
    const std::vector<Scenario>& scenarios) {
  // One plan cache per batch: sweeps solve many scenarios of identical
  // Q*-structure (same sparsity, rates and initial support, different
  // time grids), so the closure + transpose + gather-plan setup is built
  // once and shared across all lanes (GatherPlanCache is thread-safe).
  const std::shared_ptr<GatherPlanCache> plan_cache =
      std::make_shared<GatherPlanCache>();
  const BackendOptions backend_options{
      .epsilon = options_.epsilon,
      .threads = 1,
      // Batches stream Pr{empty} through the callback; the distributions
      // themselves are never materialised.
      .collect_distributions = false,
      .steady_state_detection = options_.steady_state_detection,
      .plan_cache = plan_cache};

  const core::StateOrdering ordering =
      core::parse_state_ordering(options_.reorder);

  std::vector<ScenarioResult> results(scenarios.size());
  std::vector<LaneScratch> lanes(pool_.thread_count());

  const auto batch_start = std::chrono::steady_clock::now();
  pool_.parallel_for(
      scenarios.size(), [&](std::size_t index, std::size_t lane) {
        const Scenario& scenario = scenarios[index];
        ScenarioResult& result = results[index];
        result.label = scenario.label;

        LaneScratch& scratch = lanes[lane];
        if (!scratch.backend) {
          scratch.backend = make_backend(options_.engine, backend_options);
        }

        const auto start = std::chrono::steady_clock::now();
        const core::ExpandedChain expanded = core::build_expanded_chain(
            scenario.model, scenario.delta, ordering);
        BackendStats solved;  // stays empty when the solve throws
        try {
          result.curve = core::solve_empty_probability_curve(
              expanded, *scratch.backend, scenario.times, options_.epsilon);
          solved = scratch.backend->last_stats();
        } catch (const UnsupportedChainError& error) {
          result.skipped = true;
          result.skip_reason = error.what();
        } catch (const NumericalError& error) {
          // One stiff scenario must not abort the batch and discard every
          // completed curve; the failure is recorded in place.  Anything
          // other than a solver convergence failure still propagates.
          result.failed = true;
          result.failure_reason = error.what();
        }
        result.stats =
            core::approximation_stats(expanded, options_.engine, solved);
        result.wall_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
      });

  stats_ = BatchStats{};
  stats_.scenarios = scenarios.size();
  stats_.threads = pool_.thread_count();
  stats_.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - batch_start)
                            .count();
  for (const ScenarioResult& result : results) {
    if (result.skipped) ++stats_.skipped;
    if (result.failed) ++stats_.failed;
    stats_.solve_seconds_total += result.wall_seconds;
    stats_.iterations_total += result.stats.uniformization_iterations;
    stats_.iterations_saved_total += result.stats.iterations_saved;
  }
  stats_.plans_built = plan_cache->plans_built();
  stats_.plans_reused = plan_cache->plans_reused();
  return results;
}

}  // namespace kibamrm::engine
