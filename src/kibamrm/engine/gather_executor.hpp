// The in-memory step executor of the uniformisation driver: one fused
// gather step (spmv + Poisson-weighted accumulate + sup-norm delta) over a
// CachedGatherPlan, inline or sharded across a ThreadPool, restricted to
// the rows that can carry probability.
//
// Mass window.  The loop space is cut into the driver's fixed chunks
// (markov::kDropChunkRows).  After every step each chunk whose entries
// all fall below the increment's threshold is zeroed (the drop rule of
// markov::drop_cold_chunks), so the power vector is exactly zero outside
// the hull of its live chunks.  The next power vector can be non-zero
// only on chunks whose column reach meets that hull (ChunkWindow::widen,
// engine/chunk_window.hpp): each step iterates just that span, and rows
// outside it stay exactly zero in both loop buffers -- the values a full
// sweep would compute there.
//
// Each output entry of the gather is one row of the compacted transpose of
// P, so disjoint row ranges write disjoint outputs and need no
// synchronisation.  Every step re-splits its span into nnz-balanced
// shards cut at chunk edges (ChunkWindow::split), so each chunk is stepped and then tested for
// the drop by one shard while its rows are still in that core's cache.
// Every row sums in its fixed canonical order, the drop reads one fixed
// chunk at a time and per-shard deltas reduce by max, so the step is
// bitwise identical for every lane count and shard partition.  Spans
// whose work lies below the pool-engagement threshold, or steps without a
// pool, run inline.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/engine/chunk_window.hpp"
#include "kibamrm/engine/plan_cache.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/markov/uniformization.hpp"

namespace kibamrm::engine {

class GatherExecutor final : public markov::StepExecutor {
 public:
  /// `pool` may be null (inline steps); it must outlive the executor.
  explicit GatherExecutor(common::ThreadPool* pool) : pool_(pool) {}

  /// Steps over `plan` from now on; the loop vectors keep their capacity,
  /// so an executor reused across solves allocates only when a chain
  /// outgrows it.
  void bind(std::shared_ptr<const CachedGatherPlan> plan);

  void load(const std::vector<double>& current, double weight0,
            double drop_threshold) override;
  double step(double weight) override;
  void fold(double residual) override;
  void read_back(std::vector<double>& current) override;
  IncrementWork increment_work() const override;

 private:
  common::ThreadPool* pool_;
  std::shared_ptr<const CachedGatherPlan> plan_;
  // Scratch reused across increments and solves: a whole curve allocates
  // only on its first increment.
  std::vector<double> power_;
  std::vector<double> next_;
  std::vector<double> accum_;
  // The increment's drop threshold, per-chunk dropped mass and rows.
  double drop_threshold_ = 0.0;
  std::vector<double> chunk_dropped_;
  std::uint64_t rows_iterated_ = 0;
  // Whether each chunk of the latest step's output survived the drop.
  std::vector<std::uint8_t> live_;
  // Live chunks of power_, and where each loop buffer may be non-zero.
  ChunkSpan hull_;
  ChunkSpan power_dirty_;
  ChunkSpan next_dirty_;
  // This step's shard boundaries (chunk indices) and sup-norm deltas.
  std::vector<std::size_t> bounds_;
  std::vector<double> shard_deltas_;
};

}  // namespace kibamrm::engine
