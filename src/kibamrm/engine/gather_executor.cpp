#include "kibamrm/engine/gather_executor.hpp"

#include <algorithm>
#include <utility>

#include "kibamrm/linalg/vector_ops.hpp"

namespace kibamrm::engine {

namespace {

// Chunks per shard of an inline step: the drop test then reads rows the
// kernel wrote a few dozen kilobytes earlier, still in L1/L2.
constexpr std::size_t kInlineShardChunks = 16;

}  // namespace

void GatherExecutor::bind(std::shared_ptr<const CachedGatherPlan> plan) {
  if (plan == plan_) return;
  plan_ = std::move(plan);
  live_.assign(plan_->chunk_reach_lo.size(), 0);
  shard_deltas_.assign(4 * (pool_ ? pool_->thread_count() : 1), 0.0);
}

std::size_t GatherExecutor::chunk_row(std::size_t chunk) const {
  return std::min(chunk * markov::kDropChunkRows, plan_->rows());
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
  const auto nonzero = [](double v) { return v != 0.0; };
  const auto first = std::find_if(power_.begin(), power_.end(), nonzero);
  if (first == power_.end()) {
    hull_ = {};
    return;
  }
  const auto last = std::find_if(power_.rbegin(), power_.rend(), nonzero);
  hull_ = {static_cast<std::size_t>(first - power_.begin()) /
               markov::kDropChunkRows,
           static_cast<std::size_t>(power_.rend() - last - 1) /
                   markov::kDropChunkRows +
               1};
}

GatherExecutor::ChunkSpan GatherExecutor::step_span() const {
  if (hull_.begin >= hull_.end) return {};
  const std::vector<std::size_t>& reach_lo = plan_->chunk_reach_lo;
  const std::vector<std::size_t>& reach_hi = plan_->chunk_reach_hi;
  ChunkSpan span = hull_;
  for (std::size_t c = 0; c < reach_lo.size(); ++c) {
    if (reach_lo[c] < hull_.end && reach_hi[c] >= hull_.begin) {
      span.begin = std::min(span.begin, c);
      span.end = std::max(span.end, c + 1);
    }
  }
  return span;
}

bool GatherExecutor::split(ChunkSpan span) {
  const std::vector<std::uint64_t>& work_prefix = plan_->chunk_work_prefix;
  bounds_.assign(1, span.begin);
  const std::uint64_t base = work_prefix[span.begin];
  const std::uint64_t work = work_prefix[span.end] - base;
  const std::size_t rows = chunk_row(span.end) - chunk_row(span.begin);
  const std::size_t lanes = pool_ ? pool_->thread_count() : 1;
  const bool use_pool = pool_pays_off(lanes, work - rows, rows);
  if (use_pool) {
    // Same oversubscription as plan_gather_shards: 4 shards per lane.
    const std::size_t parts = shard_deltas_.size();
    for (std::size_t k = 1; k < parts; ++k) {
      const std::uint64_t target = base + work * k / parts;
      const std::size_t edge = static_cast<std::size_t>(
          std::lower_bound(work_prefix.begin() +
                               static_cast<std::ptrdiff_t>(bounds_.back() + 1),
                           work_prefix.begin() +
                               static_cast<std::ptrdiff_t>(span.end),
                           target) -
          work_prefix.begin());
      if (edge < span.end) bounds_.push_back(edge);
    }
  } else {
    for (std::size_t c = span.begin + kInlineShardChunks; c < span.end;
         c += kInlineShardChunks) {
      bounds_.push_back(c);
    }
  }
  bounds_.push_back(span.end);
  return use_pool;
}

void GatherExecutor::clear_outside(ChunkSpan span) {
  const auto clear = [&](std::size_t c0, std::size_t c1) {
    if (c0 < c1) {
      std::fill(next_.begin() + static_cast<std::ptrdiff_t>(chunk_row(c0)),
                next_.begin() + static_cast<std::ptrdiff_t>(chunk_row(c1)),
                0.0);
    }
  };
  if (span.begin >= span.end) {
    clear(next_dirty_.begin, next_dirty_.end);
    return;
  }
  clear(next_dirty_.begin, std::min(next_dirty_.end, span.begin));
  clear(std::max(next_dirty_.begin, span.end), next_dirty_.end);
}

double GatherExecutor::step(double weight) {
  const ChunkSpan span = step_span();
  clear_outside(span);
  double delta = 0.0;
  hull_ = {};
  if (span.begin < span.end) {
    const bool pooled = split(span);
    const std::size_t shards = bounds_.size() - 1;
    const auto run_shard = [&](std::size_t shard) {
      const std::size_t c0 = bounds_[shard];
      const std::size_t c1 = bounds_[shard + 1];
      const double shard_delta = plan_->multiply_fused_range(
          power_, next_, accum_, weight, chunk_row(c0), chunk_row(c1));
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
    rows_iterated_ += chunk_row(span.end) - chunk_row(span.begin);
    for (std::size_t c = span.begin; c < span.end; ++c) {
      if (live_[c] == 0) continue;
      if (hull_.begin >= hull_.end) hull_.begin = c;
      hull_.end = c + 1;
    }
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
