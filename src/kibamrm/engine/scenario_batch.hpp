// Batched multi-scenario solving: many independent (battery model,
// workload, Delta, horizon grid) questions answered concurrently.
//
// The serving workload this library targets is not one curve but millions
// of them -- every user's device model, load profile and horizon is its own
// small-to-large expanded CTMC (the paper's Figs. 7-11 and Table 1 are
// exactly such scenario sets).  ScenarioBatch takes a vector of scenario
// descriptors and fans them out over a common::ThreadPool, solving each
// through any registered TransientBackend by name.
//
// Per-lane scratch: each pool lane owns one backend instance reused across
// every scenario that lane picks up, so the backend's internal solver
// scratch is allocated once per lane, not once per scenario.
//
// Determinism: scenarios are solved independently and results land in
// their input slots, so the output is identical for every thread count
// (bitwise, when the engine itself is deterministic across thread counts,
// which all built-ins including "parallel" are).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/kibamrm_model.hpp"
#include "kibamrm/core/lifetime_distribution.hpp"

namespace kibamrm::engine {

/// One independent lifetime-distribution question.
struct Scenario {
  /// Free-form tag carried into the result (bench labels, user ids).
  std::string label;
  /// Battery + workload combination to expand.
  core::KibamRmModel model;
  /// Reward discretisation step Delta.
  double delta = 1.0;
  /// Horizon grid (ascending) on which to sample Pr{empty at t}.
  std::vector<double> times;
};

/// Outcome of one scenario; `skipped` mirrors the sweep-driver convention:
/// an engine refusing the chain by design (UnsupportedChainError) is a
/// skip.  A numerical failure (NumericalError -- e.g. a Fox-Glynn
/// window underflowing on one extreme scenario) is isolated per scenario
/// as `failed`, so the rest of the batch still returns its curves; only
/// truly unexpected exceptions propagate out of solve_all().
struct ScenarioResult {
  std::string label;
  std::optional<core::LifetimeCurve> curve;
  core::ApproximationStats stats;
  double wall_seconds = 0.0;
  bool skipped = false;
  std::string skip_reason;
  bool failed = false;
  std::string failure_reason;
};

/// Aggregate counters of the last solve_all().
struct BatchStats {
  std::size_t scenarios = 0;
  std::size_t skipped = 0;
  /// Scenarios whose solve failed numerically (ScenarioResult::failed).
  std::size_t failed = 0;
  /// Lanes the pool ran (after auto-detection).
  std::size_t threads = 1;
  /// Wall-clock of the whole batch (what a serving frontend waits for).
  double wall_seconds = 0.0;
  /// Sum of per-scenario wall-clocks (~ CPU time spent solving; the ratio
  /// to wall_seconds is the achieved scenario-level parallelism).
  double solve_seconds_total = 0.0;
  std::uint64_t iterations_total = 0;
  /// Poisson terms skipped by steady-state early termination, summed over
  /// the batch.
  std::uint64_t iterations_saved_total = 0;
  /// Gather-plan cache traffic (engine/plan_cache.hpp): setups built from
  /// scratch vs served from the batch-shared cache.  A sweep of scenarios
  /// with identical Q*-structure builds one plan and reuses the rest.
  std::uint64_t plans_built = 0;
  std::uint64_t plans_reused = 0;
};

struct ScenarioBatchOptions {
  /// Engine every scenario is solved with; see backend_names().
  std::string engine = "uniformization";
  /// Accuracy knob forwarded to the backend.
  double epsilon = 1e-10;
  /// Scenario-level concurrency (pool lanes); 0 auto-detects hardware.
  /// Every lane's engine runs on one lane itself, so batch x engine
  /// parallelism never oversubscribes.
  std::size_t threads = 0;
  /// Forwarded to the backend: steady-state early termination
  /// (uniformisation engines).
  bool steady_state_detection = true;
  /// State ordering of every expanded chain ("none" / "level");
  /// see core::ApproximationOptions::reorder.
  std::string reorder = "level";
};

class ScenarioBatch {
 public:
  explicit ScenarioBatch(ScenarioBatchOptions options = {});

  /// Solves every scenario; results are positionally aligned with the
  /// input.  Throws InvalidArgument up front for an unknown engine name.
  std::vector<ScenarioResult> solve_all(
      const std::vector<Scenario>& scenarios);

  const BatchStats& last_stats() const { return stats_; }
  std::size_t thread_count() const { return pool_.thread_count(); }

 private:
  ScenarioBatchOptions options_;
  common::ThreadPool pool_;
  BatchStats stats_;
};

}  // namespace kibamrm::engine
