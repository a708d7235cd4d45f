// Out-of-core uniformisation backend: the parallel fused solver with its
// matrix streamed from disk instead of held in memory.
//
// Every in-memory backend's peak footprint is bounded below by the
// compacted transposed P (plus the generator and the gather plan), which
// caps the reachable Delta long before the power iteration's O(states)
// vectors do.  This backend never materialises P, its transpose or a
// gather plan: at solve start it encodes the compacted transposed
// uniformised matrix band by band into a linalg::TileStore spill file
// (O(states) transient index arrays plus one tile), then runs the same
// markov::UniformizationDriver as the parallel backend with a step
// executor that streams the tiles back each DTMC step through a
// double-buffered pipeline -- one pool lane reads tile t+1 while the
// remaining lanes compute tile t, so on chains whose per-step compute
// dominates the IO the stream is free.
//
// Bitwise contract: the tile kernel reproduces the canonical per-length
// evaluation order of the in-memory fused kernels and the streaming build
// reproduces uniformized + transposed_submatrix entry for entry (see
// linalg/tile_store.hpp), the reachable closure is computed over exactly
// P's sparsity pattern, and the per-shard steady-state deltas reduce by
// max -- so "--engine ooc" curves are bitwise identical to the in-memory
// parallel backend at EVERY tile size, thread count and shard partition.
//
// Chains small enough that a single tile holds the whole matrix
// degenerate gracefully: the tile stays resident after its first read and
// the solve performs no further IO.
#pragma once

#include <memory>

#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/linalg/tile_store.hpp"
#include "kibamrm/markov/uniformization.hpp"

namespace kibamrm::engine {

class OutOfCoreBackend final : public TransientBackend {
 public:
  explicit OutOfCoreBackend(BackendOptions options);

  std::string_view name() const override { return "ooc"; }

  std::vector<std::vector<double>> solve(
      const markov::Ctmc& chain, const std::vector<double>& initial,
      const std::vector<double>& times,
      const PointCallback& on_point = nullptr) override;

  const BackendStats& last_stats() const override { return stats_; }

  /// Lanes the pool actually runs (after auto-detection).
  std::size_t thread_count() const { return pool_->thread_count(); }

 private:
  BackendOptions options_;
  BackendStats stats_;
  std::unique_ptr<common::ThreadPool> pool_;
  // Fox-Glynn windows and loop vectors, reused across solve() calls.
  markov::UniformizationDriver driver_;
};

}  // namespace kibamrm::engine
