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
//   - Arnoldi with classical Gram-Schmidt and selective DGKS
//     reorthogonalisation (linalg/arnoldi); a happy breakdown at k < m
//     means K_k is invariant and the projected exponential is exact for
//     the entire remaining increment.
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
// the parallel uniformisation backend (the same chunk-aligned,
// nnz-balanced ChunkWindow::split) and stays bitwise deterministic
// across thread counts ("--threads" composes).  The whole solve runs in
// the reachable closure of the initial support (exact: mass cannot leave
// it), which halves both the matvec and the orthogonalisation on the
// paper's expanded chains; the orthogonalisation itself runs sharded over
// the same pool through linalg::arnoldi's fixed-block reduction contract.
//
// Mass window (the uniformisation engines' drop rule, applied per
// sub-step; engine/chunk_window.hpp).  After each accepted sub-step of
// length tau inside an increment dt, every 512-row chunk of the state
// whose entries all lie below theta = epsilon tau / (100 dt rows) is
// zeroed (markov::drop_cold_chunks), so the accepted sub-steps of one
// increment drop less than epsilon / 100 in total; BackendStats::
// dropped_mass reports it.  The state is then exactly zero outside the
// hull H_0 of its live chunks, basis vector j outside H_j = H_{j-1}
// widened by Q^T's per-chunk column reach, and Arnoldi step j -- matvec,
// Gram-Schmidt, DGKS and scale -- runs over H_{j+1} only, as do the
// error-estimate matvec and the combine.  Every buffer remembers where it
// may be non-zero and is cleared outside its span, so the windowed
// factorisation is bitwise the full-range one of the same vectors;
// BackendStats::rows_iterated counts the rows the matvecs wrote.
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

#include <cstdint>
#include <memory>
#include <vector>

#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/engine/chunk_window.hpp"
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
  /// applies Q^T over a row span.  anorm is ||Q^T||_1, the step-size and
  /// breakdown scale.
  void integrate(const linalg::ArnoldiSpanMatvec& matvec,
                 std::vector<double>& state, double dt, double anorm);

  /// Fills spans_[0..m+1]: H_0 = hull_, then each widened by the column
  /// reach; and the matching row spans.
  void plan_spans(std::size_t m);

  /// ||v||_2 of a vector that is zero outside `span`, bitwise the
  /// full-length kernels::nrm2.
  double span_norm(const std::vector<double>& v, ChunkSpan span);

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
  linalg::ArnoldiWorkspace arnoldi_ws_;
  MarchBuffers buffers_;
  // The mass window over the current solve's Q^T: the live chunks of the
  // state, the spans H_0..H_{m+1} of the next factorisation (and as row
  // ranges), where each buffer may be non-zero, the shard boundaries of
  // the latest split, and the drop's per-chunk flags and mass.
  ChunkWindow window_;
  ChunkSpan hull_;
  std::vector<ChunkSpan> spans_;
  std::vector<linalg::RowSpan> row_spans_;
  std::vector<ChunkSpan> basis_dirty_;
  ChunkSpan residual_dirty_;
  ChunkSpan state_dirty_;
  ChunkSpan stepped_dirty_;
  std::vector<std::size_t> bounds_;
  std::vector<std::uint8_t> live_;
  std::vector<double> chunk_dropped_;
  std::vector<double> norm_partials_;
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
