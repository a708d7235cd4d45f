#include "kibamrm/engine/parallel_backend.hpp"

#include "kibamrm/engine/plan_cache.hpp"

namespace kibamrm::engine {

ParallelUniformizationBackend::ParallelUniformizationBackend(
    BackendOptions options, std::string_view name)
    : options_(options),
      name_(name),
      pool_(std::make_unique<common::ThreadPool>(options.threads)),
      driver_(options.epsilon, options.steady_state_detection),
      executor_(pool_.get()) {}

std::vector<std::vector<double>> ParallelUniformizationBackend::solve(
    const markov::Ctmc& chain, const std::vector<double>& initial,
    const std::vector<double>& times, const PointCallback& on_point) {
  const double rate = markov::UniformizationDriver::select_rate(chain);
  std::shared_ptr<const CachedGatherPlan> cached;
  const auto setup = [&] {
    const std::vector<std::uint32_t> seeds = support_states(initial);
    cached = options_.plan_cache
                 ? options_.plan_cache->obtain(chain.generator(), rate, seeds)
                 : build_cached_gather_plan(chain.generator(), rate, seeds);
    executor_.bind(cached);
    stats_.uniformization_rate = rate;
    describe_matrix(cached->nonzeros, cached->structure, stats_);
    return std::span<const std::uint32_t>(cached->reachable);
  };
  return march(chain, initial, times, on_point, options_, buffers_, stats_,
               setup, [&](std::vector<double>& current, double dt) {
                 driver_.advance(executor_, rate, current, dt, stats_);
               });
}

}  // namespace kibamrm::engine
