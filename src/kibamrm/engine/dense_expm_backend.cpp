#include "kibamrm/engine/dense_expm_backend.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "kibamrm/common/error.hpp"
#include "kibamrm/linalg/expm.hpp"

namespace kibamrm::engine {

DenseExpmBackend::DenseExpmBackend(BackendOptions options)
    : options_(options) {
  KIBAMRM_REQUIRE(options_.dense_state_limit > 0,
                  "dense engine: state limit must be positive");
}

std::vector<std::vector<double>> DenseExpmBackend::solve(
    const markov::Ctmc& chain, const std::vector<double>& initial,
    const std::vector<double>& times, const PointCallback& on_point) {
  linalg::DenseReal q;
  // Uniform grids repeat the same increment; cache propagators per dt.
  std::vector<std::pair<double, linalg::DenseReal>> propagators;
  const auto setup = [&] {
    if (chain.state_count() > options_.dense_state_limit) {
      throw UnsupportedChainError(
          "dense engine: chain has " + std::to_string(chain.state_count()) +
          " states, above the dense_state_limit of " +
          std::to_string(options_.dense_state_limit) +
          "; use the uniformization engine");
    }
    q = chain.dense_generator();
    all_states_.resize(chain.state_count());
    std::iota(all_states_.begin(), all_states_.end(), 0u);
    return std::span<const std::uint32_t>(all_states_);
  };
  const auto propagator_for = [&](double dt) -> const linalg::DenseReal& {
    for (const auto& [cached_dt, e] : propagators) {
      if (std::abs(cached_dt - dt) <= 1e-12 * std::max(1.0, dt)) return e;
    }
    propagators.emplace_back(dt, linalg::expm(q.scaled(dt)));
    ++stats_.iterations;  // one dense exponential evaluated
    return propagators.back().second;
  };
  return march(chain, initial, times, on_point, options_, buffers_, stats_,
               setup, [&](std::vector<double>& current, double dt) {
                 current = propagator_for(dt).left_multiply(current);
               });
}

}  // namespace kibamrm::engine
