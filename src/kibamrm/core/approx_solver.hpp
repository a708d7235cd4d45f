// The paper's tailored algorithm (Sec. 5): Markovian approximation of the
// battery lifetime distribution.
//
// Pipeline: discretise the two accumulated rewards with step Delta
// (level_grid), build the expanded pure CTMC Q* (expanded_ctmc), solve it
// transiently through a pluggable engine (engine/transient_backend) and read
// off Pr{battery empty at t} as the probability mass in the absorbing
// j1 = 0 layer.  The default engine is the paper's uniformisation; the
// adaptive ODE stepper and the dense matrix exponential are selectable by
// name for small chains and cross-validation.  Complexity of the default is
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
  /// uniformisation, local-error tolerance for the adaptive stepper).
  double epsilon = 1e-10;
  /// Transient engine name; see engine::backend_names().
  std::string engine = "uniformization";
  /// Refusal threshold of the dense engine (states).
  std::size_t dense_state_limit = 1024;
  /// Execution lanes of the "parallel" engine; 0 auto-detects.  Ignored by
  /// the serial engines.
  std::size_t threads = 0;
  /// Steady-state / absorption early termination inside each Poisson
  /// window (uniformisation engines).
  bool steady_state_detection = true;
  /// "ooc" engine: serialized-size target per streamed tile and the
  /// spill-file directory (empty selects $TMPDIR, falling back to /tmp);
  /// forwarded to engine::BackendOptions.  Ignored by other engines.
  std::size_t tile_bytes = 8ull << 20;
  std::string spill_dir = "";
  /// Vector-kernel tier pin ("auto" / "scalar" / "avx2" / "avx512"),
  /// forwarded to engine::BackendOptions::kernel_dispatch (process-global;
  /// the tiers are bitwise identical).
  std::string kernel_dispatch = "auto";
  /// State ordering of the expanded chain ("none" / "level" / "rcm", see
  /// core::StateOrdering).  Reordering never changes the solved curve --
  /// it renumbers the states so the gather kernels see uniform row runs
  /// -- and the ExpandedChain carries the permutation for anything that
  /// reads raw distributions.
  std::string reorder = "none";
  /// Worker processes of the "sharded" engine (level-banded multi-process
  /// uniformisation); forwarded to engine::BackendOptions::shards.
  /// Ignored by the other engines.
  std::size_t shards = 1;
};

/// Cost/shape diagnostics of one approximation run.
struct ApproximationStats {
  std::size_t expanded_states = 0;
  std::size_t generator_nonzeros = 0;
  /// Engine that produced the last curve.
  std::string engine;
  /// Iteration count of the engine (DTMC steps for uniformisation, RHS
  /// evaluations for the adaptive stepper, exponentials for dense); the
  /// field keeps its historical name for the Sec. 6.1 experiments.
  std::uint64_t uniformization_iterations = 0;
  double uniformization_rate = 0.0;
  /// Poisson terms skipped by steady-state early termination (0 for
  /// engines without it); iterations + iterations_saved is the full
  /// Fox-Glynn term count.
  std::uint64_t iterations_saved = 0;
  /// Fox-Glynn windows computed vs served from the plan cache.
  std::uint64_t windows_computed = 0;
  std::uint64_t windows_reused = 0;
  /// States in the reachable closure actually iterated by the
  /// uniformisation loop (<= expanded_states; 0 for other engines), and
  /// the stored entries of the iterated matrix (the honest work unit for
  /// throughput metrics).
  std::uint64_t active_states = 0;
  std::uint64_t active_nonzeros = 0;
  /// Krylov engine: largest Arnoldi subspace dimension used, accepted
  /// adaptive sub-steps, small Hessenberg exponentials evaluated
  /// (including rejected trials), and the summed dim^2 orthogonalisation
  /// work (in units of the state count); 0 for other engines.
  std::uint64_t krylov_dim = 0;
  std::uint64_t substeps = 0;
  std::uint64_t hessenberg_expms = 0;
  std::uint64_t krylov_ortho_work = 0;
  /// State ordering the expanded chain was built with ("none" when the
  /// natural numbering was kept).
  std::string reorder = "none";
  /// Structure of the matrix the hot loop iterated (the compacted
  /// transpose): maximal |col - row|, rows inside >= 4-row equal-length
  /// runs and the longest such run.  0 for engines that do not report it.
  std::uint64_t matrix_bandwidth = 0;
  std::uint64_t groupable_rows = 0;
  std::uint64_t longest_uniform_run = 0;
  /// Rows repeating the previous row's offset pattern (diagonal runs)
  /// and the longest such run; see linalg::StructureStats.
  std::uint64_t diagonal_rows = 0;
  std::uint64_t longest_diagonal_run = 0;
  /// "sharded" engine: worker processes of the solve, halo bytes crossing
  /// the process boundary per product (static plan property), summed
  /// nanoseconds workers spent blocked on halo receives, and the
  /// max/mean stored-entry imbalance of the level bands; 0 for
  /// single-process engines.
  std::uint64_t shards = 0;
  std::uint64_t halo_bytes_per_step = 0;
  std::uint64_t halo_wait_ns = 0;
  double shard_nnz_imbalance = 0.0;
  /// "ooc" engine: tiles in the spill store, tile reads over the solve,
  /// reads satisfied by the prefetch double-buffer, slab bytes streamed
  /// from disk and the spill file size; 0 for in-memory engines.
  std::uint64_t ooc_tiles = 0;
  std::uint64_t ooc_tile_reads = 0;
  std::uint64_t ooc_prefetch_hits = 0;
  std::uint64_t ooc_bytes_streamed = 0;
  std::uint64_t ooc_spill_bytes = 0;
};

/// Copies the per-solve cost counters of a backend into the
/// approximation-level record (shared by MarkovianApproximation and
/// engine::ScenarioBatch so batched and sequential stats cannot drift).
void absorb_backend_stats(ApproximationStats& stats,
                          const engine::BackendStats& backend);

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
