// Arnoldi process: orthonormal bases of Krylov subspaces K_m(A, v).
//
// The Krylov transient backend approximates exp(t A) v by projecting A
// onto the small subspace span{v, Av, ..., A^{m-1} v}:
//     exp(t A) v  ~=  beta V_m exp(t H_m) e_1,     beta = ||v||_2,
// where V_m is the orthonormal Arnoldi basis and H_m = V_m^T A V_m the
// (m+1) x m upper-Hessenberg projection.  Only matrix-vector products with
// A are needed, so the caller supplies the matvec (the backend shards it
// across a thread pool) and this module owns just the orthogonalisation.
//
// Orthogonalisation scheme: classical Gram-Schmidt with a *selective*
// DGKS correction pass (the ARPACK policy; Giraud et al. show the pair
// reaches the same O(eps) orthogonality as reorthogonalised MGS).
// Classical projections all read the *unmodified* w, so each pass batches
// its j+1 dots and j+1 axpys into one fused sweep over memory -- two
// sweeps per Krylov step in the common case, two more only when the
// Daniel-et-al. cancellation criterion demands the correction -- against
// the ~4j strided passes of sequential MGS, which is the difference that
// matters on 1e5+-state chains where the m^2 n orthogonalisation is
// memory-bound, not flop-bound.  See the in-code note for why the
// correction pass matters on stiff chains.
//
// Every vector operation runs on the linalg/kernels layer (runtime SIMD
// dispatch) and optionally shards across a common::ThreadPool.
// Reductions follow the kernels layer's fixed-block pairwise contract,
// so the factorisation is bitwise identical for every thread count and
// dispatch tier.
//
// Row spans.  When the start vector is exactly zero outside a row range
// and A reaches only a bounded distance from each row, basis vector j is
// zero outside a known, wider range: the span H_j of the caller's mass
// window (engine/chunk_window.hpp; the Krylov engine starts from the live
// hull of its state and widens by the matrix's per-chunk column reach).
// The span overload runs step j -- its matvec, both Gram-Schmidt passes,
// the DGKS pass and the scale -- over H_{j+1} only, and re-splits its
// block shards over that span.  Spans are block-aligned (the window's
// 512-row chunks are two kernel blocks), so the block partials outside a
// span stay exactly zero and every reduction still runs the full-length
// pairwise tree: a factorisation of vectors with zero tails is bitwise
// the full-range one, at every lane count.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "kibamrm/linalg/dense_matrix.hpp"

namespace kibamrm::common {
class ThreadPool;
}  // namespace kibamrm::common

namespace kibamrm::linalg {

/// out = A * in; `out` is pre-sized to in.size() and fully overwritten.
using ArnoldiMatvec =
    std::function<void(const std::vector<double>&, std::vector<double>&)>;

/// Rows [begin, end) of a vector.
struct RowSpan {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// out = A * in over `rows` only: writes out[i] for i in rows and touches
/// nothing else (`out` is pre-sized to in.size()).
using ArnoldiSpanMatvec = std::function<void(
    const std::vector<double>&, std::vector<double>&, RowSpan)>;

/// Result of one Arnoldi factorisation A V_k = V_{k+1} H_k.
struct ArnoldiResult {
  /// Completed Krylov steps k (== columns of H with meaning); k < m only
  /// after a happy breakdown.
  std::size_t dim = 0;
  /// True when the residual norm h_{k+1,k} fell below the breakdown
  /// tolerance relative to ||A v_k||: K_k(A, v) is (numerically)
  /// A-invariant and the projected exponential is exact, for any step
  /// size.  The scale must be the *current* matvec, not ||A||: on stiff
  /// chains a quasi-equilibrated v has ||A v|| orders of magnitude below
  /// ||A||, and an absolute threshold would swallow the slow couplings
  /// that carry the physics.
  bool happy_breakdown = false;
  /// Matrix-vector products performed (== dim).
  std::size_t matvecs = 0;
};

/// Reusable scratch of the sharded orthogonalisation (block partials of
/// the multi-dot, DGKS corrections, shard boundaries).  Optional: arnoldi
/// allocates locally when none is passed; the Krylov backend keeps one
/// across its thousands of factorisations.
struct ArnoldiWorkspace {
  std::vector<double> partials;
  std::vector<double> corrections;
  std::vector<std::size_t> shard_blocks;
};

/// Runs m Arnoldi steps from the unit vector in basis[0] (the caller
/// normalises), filling basis[1..dim] and the (m+1) x m Hessenberg `h`
/// (zeroed here; h may be larger, the top-left block is used).  `basis`
/// must hold at least m+1 vectors of the problem dimension; basis[j+1]
/// doubles as the matvec target of step j, so no extra scratch is needed.
///
/// `pool` (optional) shards the dot/axpy sweeps; the result is bitwise
/// independent of the pool size.  Stops early when
/// h_{k+1,k} <= breakdown_tolerance * ||A v_k|| (happy breakdown); pass a
/// small multiple of machine epsilon.
ArnoldiResult arnoldi(const ArnoldiMatvec& matvec,
                      std::vector<std::vector<double>>& basis, DenseReal& h,
                      std::size_t m, double breakdown_tolerance,
                      common::ThreadPool* pool = nullptr,
                      ArnoldiWorkspace* workspace = nullptr);

/// The same factorisation with every step confined to a row span (see
/// the file comment): step j computes basis[j+1] over spans[j+1] only.
/// `spans` holds at least m+1 entries, nested (spans[j] inside
/// spans[j+1]), each starting on a kernels::kBlockDoubles boundary and
/// ending on one or at the vector's end.  On entry basis[j] must be zero
/// outside spans[j] for every j <= m -- basis[0] by the caller's start
/// vector, the others because the caller cleared them -- and A must map a
/// vector that is zero outside spans[j] to one that is zero outside
/// spans[j+1].  The result, basis and H are then bitwise those of the
/// full-range overload.
ArnoldiResult arnoldi(const ArnoldiSpanMatvec& matvec,
                      std::span<const RowSpan> spans,
                      std::vector<std::vector<double>>& basis, DenseReal& h,
                      std::size_t m, double breakdown_tolerance,
                      common::ThreadPool* pool = nullptr,
                      ArnoldiWorkspace* workspace = nullptr);

}  // namespace kibamrm::linalg
