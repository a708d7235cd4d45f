// Krylov-subspace transient backend: exp(Q^T t) v by Arnoldi projection
// with EXPOKIT-style adaptive sub-step splitting (Sidje 1998, dgexpv).
//
// The expanded KiBaM chains turn stiff as the recovery/consumption rate
// ratio and the reward step Delta shrink: an explicit stepper's stable
// step collapses below what any iteration count can cover, and the
// Fox-Glynn window of uniformisation grows with q t.  The Krylov
// approximation sidesteps both: per sub-step tau it builds an
// orthonormal basis V_m of K_m(Q^T, w) (m ~ 30) and computes
//     exp(tau Q^T) w  ~=  beta V_m exp(tau H_m) e_1,
// where the small Hessenberg exponential is evaluated exactly (cached
// Pade + scaling/squaring, A-stable) -- so the step size is limited by how
// fast the *solution* moves, not by the spectral radius.  Once the fast
// modes have equilibrated, the a-posteriori error estimate lets tau grow
// geometrically and whole quasi-steady stretches cost a handful of steps.
//
// Mechanics per sub-step (EXPOKIT's corrected scheme):
//   - Arnoldi with modified Gram-Schmidt (linalg/arnoldi); a happy
//     breakdown at k < m means K_k is invariant and the projected
//     exponential is exact for the entire remaining increment.
//   - The (m+2)-augmented Hessenberg [H | h e_m; 0 | e_{m+1}] is
//     exponentiated through one linalg::ScaledExpmCache per factorisation,
//     so rejected trial steps re-use the cached Pade powers and only pay
//     the assembly, LU and squaring chain.
//   - Local error from the EXPOKIT estimate (the |F(m+1,1)| / |F(m+2,1)|
//     pair, the second weighted by ||A v_{m+1}||); accepted when below the
//     increment's pro-rata share of `epsilon`, else tau shrinks and the
//     trial repeats.
//
// The sparse matvec is CsrMatrix::multiply_range on the transposed
// generator -- a gather, so it shards across the ThreadPool exactly like
// the parallel uniformisation backend and stays bitwise deterministic
// across thread counts ("--threads" composes).  The whole solve runs in
// the reachable closure of the initial support (exact: mass cannot leave
// it), which halves both the matvec and the orthogonalisation on the
// paper's expanded chains; the orthogonalisation itself runs sharded over
// the same pool through linalg::arnoldi's fixed-block reduction contract.
//
// Adaptive subspace dimension: between sub-steps m grows on rejected
// trials (the projection was too shallow for the attempted step) and
// shrinks to the shallowest nested subspace whose own error estimate
// passes the next step with a twofold margin, or to the early-closed
// subspace of a happy breakdown -- so small easy chains stop paying the
// m = 30 worst-case orthogonalisation and stiff chains stop burning
// re-stepped trials.
// The accept/reject test is unchanged, so adaptivity affects cost only,
// never the error contract.  BackendOptions::krylov_adaptive_dim pins
// m = krylov_dim for A/B measurement.
#pragma once

#include <memory>
#include <vector>

#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/linalg/arnoldi.hpp"
#include "kibamrm/linalg/csr_matrix.hpp"
#include "kibamrm/linalg/dense_matrix.hpp"

namespace kibamrm::engine {

class KrylovBackend final : public TransientBackend {
 public:
  explicit KrylovBackend(BackendOptions options);

  std::string_view name() const override { return "krylov"; }

  std::vector<std::vector<double>> solve(
      const markov::Ctmc& chain, const std::vector<double>& initial,
      const std::vector<double>& times,
      const PointCallback& on_point = nullptr) override;

  const BackendStats& last_stats() const override { return stats_; }

  /// Lanes the pool actually runs (after auto-detection).
  std::size_t thread_count() const { return pool_->thread_count(); }

 private:
  /// Advances `state` by dt through adaptive Krylov sub-steps; `matvec`
  /// applies Q^T.  anorm is ||Q^T||_1, the step-size and breakdown scale.
  void integrate(const std::function<void(const std::vector<double>&,
                                          std::vector<double>&)>& matvec,
                 std::vector<double>& state, double dt, double anorm);

  /// Smallest dimension, stepping down from m by dim quanta, whose
  /// estimated error for a step of length `probe` from the current
  /// factorisation (of a vector of norm beta) stays a twofold margin
  /// inside the budget probe * tol; m if no shallower one does.
  std::size_t shallowest_passing_dim(std::size_t m, double beta, double probe,
                                     double tol);

  BackendOptions options_;
  BackendStats stats_;
  std::unique_ptr<common::ThreadPool> pool_;
  // Scratch reused across sub-steps and solve() calls: the Arnoldi basis
  // (m_cap+1 vectors of the chain dimension), the Hessenberg projection,
  // the residual matvec target for ||A v_{m+1}||, the sub-step result,
  // and the sharded-orthogonalisation workspace.
  std::vector<std::vector<double>> basis_;
  linalg::DenseReal hess_;
  std::vector<double> residual_;
  std::vector<double> stepped_;
  std::vector<double> full_point_;  // closure -> full-space emission buffer
  // Row split of the current solve's Q^T, shared by the matvec and the
  // accepted-step combine.
  GatherShardPlan shards_;
  linalg::ArnoldiWorkspace arnoldi_ws_;
  // Converged controller sub-step carried across increments of one solve
  // (0 = derive the a-priori EXPOKIT guess); reset per solve().
  double previous_tau_ = 0.0;
  // Adaptive subspace dimension, persisted across sub-steps and
  // increments of one solve: cap = min(krylov_dim, states), floor 4.
  std::size_t m_cap_ = 1;
  std::size_t m_floor_ = 1;
  std::size_t current_m_ = 1;
};

}  // namespace kibamrm::engine
