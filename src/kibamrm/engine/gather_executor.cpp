#include "kibamrm/engine/gather_executor.hpp"

#include <algorithm>
#include <utility>

namespace kibamrm::engine {

void GatherExecutor::bind(std::shared_ptr<const CachedGatherPlan> plan) {
  plan_ = std::move(plan);
  shards_ = plan_gather_shards(plan_->row_entry_counts, plan_->nonzeros, 0,
                               plan_->rows(),
                               pool_ ? pool_->thread_count() : 1);
  // Snap shard boundaries onto uniform-segment edges: a boundary inside a
  // segment costs partial SIMD groups at both shard edges.  Per-row
  // arithmetic is partition-independent, so this only moves work, never
  // changes a bit.
  if (plan_->plan && shards_.use_pool) {
    plan_->plan->align_ranges_to_segments(shards_.ranges);
  }
  shard_deltas_.assign(shards_.shard_count(), 0.0);
}

double GatherExecutor::step(double weight, bool /*want_delta*/) {
  double delta = 0.0;
  if (shards_.use_pool) {
    const std::vector<std::size_t>& ranges = shards_.ranges;
    pool_->parallel_for(shards_.shard_count(),
                        [&](std::size_t shard, std::size_t /*lane*/) {
                          shard_deltas_[shard] = plan_->multiply_fused_range(
                              power_, next_, accum_, weight, ranges[shard],
                              ranges[shard + 1]);
                        });
    for (const double shard_delta : shard_deltas_) {
      delta = std::max(delta, shard_delta);
    }
  } else {
    delta = plan_->multiply_fused_range(power_, next_, accum_, weight, 0,
                                        plan_->rows());
  }
  power_.swap(next_);
  return delta;
}

}  // namespace kibamrm::engine
