#include "kibamrm/linalg/arnoldi.hpp"

#include <algorithm>
#include <cmath>

#include "kibamrm/common/error.hpp"
#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/linalg/kernels.hpp"

namespace kibamrm::linalg {

namespace {

// Sweeps reading fewer elements than this run inline: they cost less than
// waking the pool (the same engagement threshold the gather shard split
// uses).  A sweep of step j reads j+2 vectors over the step's span.
constexpr std::size_t kPoolThresholdElements = 16384;
// ... and so do sweeps over spans shorter than this: their shards would be
// a block or two each, and on chains that small the matvec runs inline,
// so every pooled sweep would wake parked lanes.
constexpr std::size_t kPoolMinSpan = 4096;

// Reorthogonalise when the projection removed more than this fraction of
// w's norm (eta = 1/sqrt(2), the classic Daniel et al. choice): above it
// the first Gram-Schmidt pass is provably accurate enough on its own.
constexpr double kReorthThreshold = 0.70710678118654752;

// The sharded sweeps over one factorisation.  Shards are contiguous
// *block* ranges of the kernels layer's fixed reduction blocks, so every
// block partial is computed whole inside one shard and the pairwise
// reduction over the full partial array is bitwise independent of the
// partition; element-wise work (axpy, scale) is order-free anyway.  Each
// step re-splits the shards over its row span only: the partials of the
// blocks outside it stay exactly zero, which is what a full sweep over
// vectors that are zero there would compute.
class ShardedSweeps {
 public:
  ShardedSweeps(common::ThreadPool* pool, ArnoldiWorkspace& ws,
                std::size_t n, std::size_t m)
      : ws_(ws), pool_(pool), n_(n), blocks_(kernels::block_count(n)) {
    ws_.partials.assign((m + 1) * blocks_, 0.0);
    ws_.corrections.assign(m + 1, 0.0);
  }

  /// Confines the following sweeps to the blocks of `rows`; each reads
  /// `vectors` vectors there.
  void restrict_to(RowSpan rows, std::size_t vectors) {
    const std::size_t first = rows.begin / kernels::kBlockDoubles;
    const std::size_t blocks = kernels::block_count(rows.end) - first;
    const std::size_t span = rows.end - rows.begin;
    engaged_ = pool_ != nullptr && pool_->thread_count() > 1 &&
               span >= kPoolMinSpan &&
               vectors * span >= kPoolThresholdElements;
    // 4x oversubscription: each lane keeps its home block of contiguous
    // shards (and their basis rows in its L2) sweep after sweep, and lanes
    // that finish early steal whole shards to absorb jitter.
    // Floor of one shard: an empty span (a zero-dimensional problem) still
    // runs its (empty) sweeps and exits through the happy-breakdown test.
    const std::size_t shards = std::max<std::size_t>(
        1, std::min(blocks, engaged_ ? 4 * pool_->thread_count() : 1));
    ws_.shard_blocks.assign(shards + 1, 0);
    for (std::size_t s = 0; s <= shards; ++s) {
      ws_.shard_blocks[s] = first + blocks * s / shards;
    }
  }

  double* partials(std::size_t row) {
    return ws_.partials.data() + row * blocks_;
  }
  double* corrections() { return ws_.corrections.data(); }

  /// Runs sweep(block_begin, block_end, elem_begin, elem_end) over every
  /// shard of the current span (on the pool when engaged).
  template <typename Sweep>
  void run(const Sweep& sweep) {
    const std::size_t shards = ws_.shard_blocks.size() - 1;
    const auto shard_body = [&](std::size_t s) {
      const std::size_t block_begin = ws_.shard_blocks[s];
      const std::size_t block_end = ws_.shard_blocks[s + 1];
      const std::size_t elem_begin = block_begin * kernels::kBlockDoubles;
      const std::size_t elem_end =
          std::min(n_, block_end * kernels::kBlockDoubles);
      sweep(block_begin, block_end, elem_begin, elem_end);
    };
    if (engaged_) {
      pool_->parallel_for(shards,
                          [&](std::size_t s, std::size_t /*lane*/) {
                            shard_body(s);
                          });
    } else {
      for (std::size_t s = 0; s < shards; ++s) shard_body(s);
    }
  }

  /// The reduction over every block of the vector, so the tree is the
  /// full-length one whatever the span.
  double reduce(std::size_t row) {
    return kernels::reduce_pairwise(partials(row), blocks_);
  }

 private:
  ArnoldiWorkspace& ws_;
  common::ThreadPool* pool_;
  bool engaged_ = false;
  std::size_t n_;
  std::size_t blocks_;
};

}  // namespace

ArnoldiResult arnoldi(const ArnoldiMatvec& matvec,
                      std::vector<std::vector<double>>& basis, DenseReal& h,
                      std::size_t m, double breakdown_tolerance,
                      common::ThreadPool* pool,
                      ArnoldiWorkspace* workspace) {
  const RowSpan full{0, basis.empty() ? 0 : basis[0].size()};
  const std::vector<RowSpan> spans(m + 1, full);
  return arnoldi(
      [&matvec](const std::vector<double>& in, std::vector<double>& out,
                RowSpan /*rows*/) { matvec(in, out); },
      spans, basis, h, m, breakdown_tolerance, pool, workspace);
}

ArnoldiResult arnoldi(const ArnoldiSpanMatvec& matvec,
                      std::span<const RowSpan> spans,
                      std::vector<std::vector<double>>& basis, DenseReal& h,
                      std::size_t m, double breakdown_tolerance,
                      common::ThreadPool* pool,
                      ArnoldiWorkspace* workspace) {
  KIBAMRM_REQUIRE(m >= 1, "arnoldi: subspace dimension must be >= 1");
  KIBAMRM_REQUIRE(basis.size() >= m + 1,
                  "arnoldi: basis must hold at least m+1 vectors");
  KIBAMRM_REQUIRE(h.rows() >= m + 1 && h.cols() >= m,
                  "arnoldi: Hessenberg must be at least (m+1) x m");
  const std::size_t n = basis[0].size();
  KIBAMRM_REQUIRE(spans.size() >= m + 1,
                  "arnoldi: need a row span per basis vector");
  for (std::size_t j = 0; j <= m; ++j) {
    const RowSpan rows = spans[j];
    const bool nested =
        j == 0 || (spans[j - 1].begin >= rows.begin &&
                   spans[j - 1].end <= rows.end);
    KIBAMRM_REQUIRE(
        rows.begin <= rows.end && rows.end <= n && nested &&
            rows.begin % kernels::kBlockDoubles == 0 &&
            (rows.end % kernels::kBlockDoubles == 0 || rows.end == n),
        "arnoldi: row spans must be nested, block-aligned and inside the "
        "vector");
  }

  for (std::size_t i = 0; i < h.rows(); ++i) {
    for (std::size_t j = 0; j < h.cols(); ++j) h(i, j) = 0.0;
  }

  ArnoldiWorkspace local;
  ShardedSweeps sweeps(pool, workspace ? *workspace : local, n, m);

  ArnoldiResult result;
  for (std::size_t j = 0; j < m; ++j) {
    std::vector<double>& w = basis[j + 1];
    matvec(basis[j], w, spans[j + 1]);
    ++result.matvecs;
    sweeps.restrict_to(spans[j + 1], j + 2);
    double* wd = w.data();
    // CGS2 orthogonalisation in three fused sweeps (the ARPACK scheme:
    // classical Gram-Schmidt plus one DGKS correction pass; Giraud et al.
    // show the pair reaches the same O(eps) orthogonality as MGS with a
    // second pass).  Classical projections all read the *unmodified* w,
    // so the j+1 dots of a pass batch into one sweep over memory -- on
    // the 1e5+-state chains where this factorisation lives, memory
    // passes, not flops, are the wall.
    //
    // Sweep 1: every first-pass projection h_i = <v_i, w> plus the
    // breakdown scale ||A v_j||, one read of w.
    sweeps.run([&](std::size_t bb, std::size_t be, std::size_t,
                   std::size_t) {
      kernels::dot_blocks(wd, wd, n, bb, be, sweeps.partials(m));
      for (std::size_t i = 0; i <= j; ++i) {
        kernels::dot_blocks(basis[i].data(), wd, n, bb, be,
                            sweeps.partials(i));
      }
    });
    const double wnorm = std::sqrt(sweeps.reduce(m));
    double* coefficients = sweeps.corrections();
    for (std::size_t i = 0; i <= j; ++i) {
      coefficients[i] = sweeps.reduce(i);
      h(i, j) = coefficients[i];
    }
    // Sweep 2: apply the projections and measure what is left of w in
    // the same pass.
    sweeps.run([&](std::size_t bb, std::size_t be, std::size_t eb,
                   std::size_t ee) {
      for (std::size_t i = 0; i <= j; ++i) {
        kernels::axpy(-coefficients[i], basis[i].data() + eb, wd + eb,
                      ee - eb);
      }
      kernels::dot_blocks(wd, wd, n, bb, be, sweeps.partials(m));
    });
    double residual = std::sqrt(sweeps.reduce(m));
    // Selective DGKS correction (Daniel/Gragg/Kaufman/Stewart criterion,
    // the ARPACK policy): the first pass lost orthogonality only if the
    // projection cancelled most of w -- on stiff chains ||A v_j|| dwarfs
    // the residual and the cancellation leaves O(eps ||A v_j||)
    // components along the basis, a relative perturbation that would
    // poison exactly the slow couplings the Krylov projection exists to
    // resolve.  The correction pass removes them and folds into H, so
    // the Arnoldi relation A V_k = V_{k+1} H_k keeps holding; when the
    // residual kept most of w's norm (the mild-chain common case) the
    // pass is provably unnecessary and its two memory sweeps are
    // skipped.  The trigger compares bitwise-deterministic norms, so
    // thread count and dispatch tier cannot flip it.
    if (residual < kReorthThreshold * wnorm) {
      sweeps.run([&](std::size_t bb, std::size_t be, std::size_t,
                     std::size_t) {
        for (std::size_t i = 0; i <= j; ++i) {
          kernels::dot_blocks(basis[i].data(), wd, n, bb, be,
                              sweeps.partials(i));
        }
      });
      for (std::size_t i = 0; i <= j; ++i) {
        coefficients[i] = sweeps.reduce(i);
        h(i, j) += coefficients[i];
      }
      sweeps.run([&](std::size_t bb, std::size_t be, std::size_t eb,
                     std::size_t ee) {
        for (std::size_t i = 0; i <= j; ++i) {
          kernels::axpy(-coefficients[i], basis[i].data() + eb, wd + eb,
                        ee - eb);
        }
        kernels::dot_blocks(wd, wd, n, bb, be, sweeps.partials(m));
      });
      residual = std::sqrt(sweeps.reduce(m));
    }
    h(j + 1, j) = residual;
    result.dim = j + 1;
    if (residual <= breakdown_tolerance * wnorm) {
      result.happy_breakdown = true;
      return result;
    }
    const double inverse = 1.0 / residual;
    sweeps.run([&](std::size_t, std::size_t, std::size_t eb,
                   std::size_t ee) {
      kernels::scale(wd + eb, inverse, ee - eb);
    });
  }
  return result;
}

}  // namespace kibamrm::linalg
