#include "kibamrm/engine/parallel_backend.hpp"

#include "kibamrm/engine/plan_cache.hpp"

namespace kibamrm::engine {

ParallelUniformizationBackend::ParallelUniformizationBackend(
    BackendOptions options, std::string_view name)
    : options_(options),
      name_(name),
      pool_(std::make_unique<common::ThreadPool>(options.threads)),
      driver_(transient_options(options)),
      executor_(pool_.get()) {}

std::vector<std::vector<double>> ParallelUniformizationBackend::solve(
    const markov::Ctmc& chain, const std::vector<double>& initial,
    const std::vector<double>& times, const PointCallback& on_point) {
  markov::check_transient_arguments(chain, initial, times);
  const double rate = markov::UniformizationDriver::select_rate(chain);
  std::vector<std::uint32_t> seeds;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    if (initial[i] != 0.0) seeds.push_back(static_cast<std::uint32_t>(i));
  }
  const std::shared_ptr<const CachedGatherPlan> cached =
      options_.plan_cache
          ? options_.plan_cache->obtain(chain.generator(), rate, seeds)
          : build_cached_gather_plan(chain.generator(), rate, seeds);
  executor_.bind(cached);

  stats_ = BackendStats{};
  cached->describe(stats_);
  return driver_.run(executor_, rate, cached->reachable, initial, times,
                     on_point, stats_);
}

}  // namespace kibamrm::engine
