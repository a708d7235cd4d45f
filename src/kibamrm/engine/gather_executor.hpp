// The in-memory step executor of the uniformisation driver: one fused
// gather step (spmv + Poisson-weighted accumulate + sup-norm delta) over a
// CachedGatherPlan, inline or sharded across a ThreadPool.
//
// Each output entry of the gather is one row of the compacted transpose of
// P, so disjoint row ranges write disjoint outputs and need no
// synchronisation.  Ranges are nnz-balanced (plan_gather_shards) and
// snapped to uniform-segment edges; because every row sums in its fixed
// canonical order and per-shard deltas reduce by max, the step is bitwise
// identical for every lane count and shard partition.  Below the
// pool-engagement threshold, or without a pool, the step runs inline.
#pragma once

#include <memory>
#include <vector>

#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/engine/plan_cache.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/markov/uniformization.hpp"

namespace kibamrm::engine {

class GatherExecutor final : public markov::VectorStepExecutor {
 public:
  /// `pool` may be null (inline steps); it must outlive the executor.
  explicit GatherExecutor(common::ThreadPool* pool) : pool_(pool) {}

  /// Steps over `plan` from now on; the loop vectors keep their capacity,
  /// so an executor reused across solves allocates only when a chain
  /// outgrows it.
  void bind(std::shared_ptr<const CachedGatherPlan> plan);

  double step(double weight, bool want_delta) override;

 private:
  common::ThreadPool* pool_;
  std::shared_ptr<const CachedGatherPlan> plan_;
  GatherShardPlan shards_;
  // Per-shard sup-norm deltas of one step, reduced by max.
  std::vector<double> shard_deltas_;
};

}  // namespace kibamrm::engine
