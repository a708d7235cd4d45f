// The paper's tailored algorithm (Sec. 5): Markovian approximation of the
// battery lifetime distribution.
//
// Pipeline: discretise the two accumulated rewards with step Delta
// (level_grid), build the expanded pure CTMC Q* (expanded_ctmc), solve it
// transiently through a pluggable engine (engine/transient_backend) and read
// off Pr{battery empty at t} as the probability mass in the absorbing
// j1 = 0 layer.  The default engine is the paper's uniformisation; the
// Krylov projection and the dense matrix exponential are selectable by
// name for stiff chains and cross-validation.  Complexity of the default is
// O(N^2 q t (u1/Delta)(u2/Delta)) as analysed in Sec. 5.3; the solver
// reports the actual state/non-zero/iteration counts so the complexity
// experiments of Sec. 6.1 can be reproduced.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "kibamrm/core/expanded_ctmc.hpp"
#include "kibamrm/core/lifetime_distribution.hpp"
#include "kibamrm/engine/transient_backend.hpp"

namespace kibamrm::core {

struct ApproximationOptions {
  /// Reward discretisation step Delta (charge units).
  double delta = 1.0;
  /// Transient-solver accuracy (truncation error per time increment for
  /// uniformisation, local error tolerance for the Krylov engine).
  double epsilon = 1e-10;
  /// Transient engine name; see engine::backend_names().
  std::string engine = "uniformization";
  /// Execution lanes of the "parallel" engine; 0 auto-detects.  Ignored by
  /// the serial engines.
  std::size_t threads = 0;
  /// Steady-state / absorption early termination inside each Poisson
  /// window (uniformisation engines).
  bool steady_state_detection = true;
  /// State ordering of the expanded chain ("level" / "none", see
  /// core::StateOrdering).  Reordering never changes the solved curve --
  /// it renumbers the states so the gather kernels see uniform row runs
  /// -- and the ExpandedChain carries the permutation for anything that
  /// reads raw distributions.  "none" keeps the natural numbering for
  /// comparison.
  std::string reorder = "level";
};

/// Cost/shape diagnostics of one approximation run: the engine's counters
/// (engine::BackendStats) plus what only this layer knows -- the expanded
/// chain's size, the engine name and the state ordering.
struct ApproximationStats : engine::BackendStats {
  std::size_t expanded_states = 0;
  std::size_t generator_nonzeros = 0;
  /// Engine that produced the last curve.
  std::string engine;
  /// State ordering the expanded chain was built with ("level", or
  /// "none" when the natural numbering was kept).
  std::string reorder = "level";
  /// Always equal to `iterations` (the engine's work unit: DTMC steps for
  /// uniformisation, matrix-vector products for krylov, exponentials
  /// for dense); the Sec. 6.1 experiments read it under this
  /// name.
  std::uint64_t uniformization_iterations = 0;
};

/// The approximation-level record of a solve of `expanded` through the
/// engine named `engine`: the chain's size and ordering, the engine name
/// and the backend's counters (none before the first solve).  Shared by
/// MarkovianApproximation and engine::ScenarioBatch, so batched and
/// sequential stats cannot drift.
ApproximationStats approximation_stats(const ExpandedChain& expanded,
                                       const std::string& engine,
                                       const engine::BackendStats& backend = {});

class MarkovianApproximation {
 public:
  /// Builds the expanded chain and instantiates the selected engine;
  /// throws InvalidArgument for unknown engine names.
  MarkovianApproximation(const KibamRmModel& model,
                         ApproximationOptions options);

  /// Pr{battery empty at t} for every t in `times` (ascending).
  LifetimeCurve solve(const std::vector<double>& times);

  const ApproximationStats& last_stats() const { return stats_; }
  const ExpandedChain& expanded_chain() const { return expanded_; }

 private:
  ApproximationOptions options_;
  ExpandedChain expanded_;
  std::unique_ptr<engine::TransientBackend> backend_;
  ApproximationStats stats_;
};

/// One-shot convenience; `engine` selects the transient backend.
LifetimeCurve approximate_lifetime_distribution(
    const KibamRmModel& model, double delta, const std::vector<double>& times,
    const std::string& engine = "uniformization");

/// The shared tail of every approximation pipeline: streams Pr{empty at t}
/// for the expanded chain through `backend`, clamps solver round-off (the
/// tolerance policy lives here and only here) and builds the curve.  Both
/// MarkovianApproximation::solve and engine::ScenarioBatch call this, so
/// batched and sequential solves of the same scenario cannot diverge.
LifetimeCurve solve_empty_probability_curve(const ExpandedChain& expanded,
                                            engine::TransientBackend& backend,
                                            const std::vector<double>& times,
                                            double epsilon);

}  // namespace kibamrm::core
