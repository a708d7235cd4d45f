#include "kibamrm/engine/gather_executor.hpp"

#include <algorithm>
#include <utility>

#include "kibamrm/linalg/vector_ops.hpp"

namespace kibamrm::engine {

void GatherExecutor::bind(std::shared_ptr<const CachedGatherPlan> plan) {
  if (plan == plan_) return;
  plan_ = std::move(plan);
  live_.assign(plan_->window.chunks(), 0);
  shard_deltas_.assign(kShardsPerLane * (pool_ ? pool_->thread_count() : 1),
                       0.0);
}

void GatherExecutor::load(const std::vector<double>& current, double weight0,
                          double drop_threshold) {
  power_ = current;
  next_.resize(current.size());
  accum_.assign(current.size(), 0.0);
  if (weight0 != 0.0) linalg::axpy(weight0, current, accum_);
  drop_threshold_ = drop_threshold;
  chunk_dropped_.assign(markov::drop_chunk_count(current.size()), 0.0);
  rows_iterated_ = 0;
  // next_ still holds whatever the previous increment left in it.
  power_dirty_ = {0, live_.size()};
  next_dirty_ = {0, live_.size()};
  // The window opens on every chunk holding a non-zero entry (or a NaN):
  // the drop rule applies only after steps.
  hull_ = nonzero_hull(power_);
}

double GatherExecutor::step(double weight) {
  const ChunkWindow& window = plan_->window;
  const ChunkSpan span = window.widen(hull_);
  window.clear_outside(next_, next_dirty_, span);
  double delta = 0.0;
  hull_ = {};
  if (!span.empty()) {
    const bool pooled =
        window.split(span, pool_ ? pool_->thread_count() : 1, bounds_);
    const std::size_t shards = bounds_.size() - 1;
    const auto run_shard = [&](std::size_t shard) {
      const std::size_t c0 = bounds_[shard];
      const std::size_t c1 = bounds_[shard + 1];
      const double shard_delta = plan_->multiply_fused_range(
          power_, next_, accum_, weight, window.row(c0), window.row(c1));
      markov::drop_cold_chunks(next_.data(), next_.size(), c0, c1,
                               drop_threshold_, chunk_dropped_.data(),
                               live_.data());
      return shard_delta;
    };
    if (pooled) {
      pool_->parallel_for(shards, [&](std::size_t shard, std::size_t) {
        shard_deltas_[shard] = run_shard(shard);
      });
      for (std::size_t shard = 0; shard < shards; ++shard) {
        delta = std::max(delta, shard_deltas_[shard]);
      }
    } else {
      for (std::size_t shard = 0; shard < shards; ++shard) {
        delta = std::max(delta, run_shard(shard));
      }
    }
    rows_iterated_ += window.row(span.end) - window.row(span.begin);
    hull_ = live_hull(live_, span);
  }
  next_dirty_ = span;
  power_.swap(next_);
  std::swap(power_dirty_, next_dirty_);
  return delta;
}

void GatherExecutor::fold(double residual) {
  if (residual > 0.0) linalg::axpy(residual, power_, accum_);
}

void GatherExecutor::read_back(std::vector<double>& current) {
  current.swap(accum_);
}

markov::StepExecutor::IncrementWork GatherExecutor::increment_work() const {
  IncrementWork work;
  work.rows_iterated = rows_iterated_;
  for (const double chunk : chunk_dropped_) work.dropped_mass += chunk;
  return work;
}

}  // namespace kibamrm::engine
