#include "kibamrm/engine/transient_backend.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "kibamrm/common/error.hpp"
#include "kibamrm/engine/dense_expm_backend.hpp"
#include "kibamrm/engine/krylov_backend.hpp"
#include "kibamrm/engine/parallel_backend.hpp"
#include "kibamrm/linalg/vector_ops.hpp"

namespace kibamrm::engine {

namespace {

void check_transient_arguments(const markov::Ctmc& chain,
                               const std::vector<double>& initial,
                               const std::vector<double>& times) {
  KIBAMRM_REQUIRE(initial.size() == chain.state_count(),
                  "initial distribution has wrong dimension");
  KIBAMRM_REQUIRE(linalg::is_probability_vector(initial, 1e-6),
                  "initial vector is not a probability distribution");
  // NaN compares false both ways, so is_sorted alone would let it through.
  KIBAMRM_REQUIRE(std::all_of(times.begin(), times.end(),
                              [](double t) { return std::isfinite(t); }),
                  "time points must be finite");
  KIBAMRM_REQUIRE(std::is_sorted(times.begin(), times.end()),
                  "time points must be sorted ascending");
  KIBAMRM_REQUIRE(times.empty() || times.front() >= 0.0,
                  "time points must be non-negative");
}

std::map<std::string, BackendFactory, std::less<>>& registry() {
  static std::map<std::string, BackendFactory, std::less<>> backends = {
      {"uniformization",
       [](const BackendOptions& options) -> std::unique_ptr<TransientBackend> {
         // The serial engine is "parallel" on one lane: ThreadPool(1)
         // spawns no threads and every step runs inline.
         BackendOptions one_lane = options;
         one_lane.threads = 1;
         return std::make_unique<ParallelUniformizationBackend>(
             one_lane, "uniformization");
       }},
      {"dense",
       [](const BackendOptions& options) -> std::unique_ptr<TransientBackend> {
         return std::make_unique<DenseExpmBackend>(options);
       }},
      {"parallel",
       [](const BackendOptions& options) -> std::unique_ptr<TransientBackend> {
         return std::make_unique<ParallelUniformizationBackend>(options);
       }},
      {"krylov",
       [](const BackendOptions& options) -> std::unique_ptr<TransientBackend> {
         return std::make_unique<KrylovBackend>(options);
       }},
  };
  return backends;
}

}  // namespace

std::vector<std::vector<double>> march(
    const markov::Ctmc& chain, const std::vector<double>& initial,
    const std::vector<double>& times, const PointCallback& on_point,
    const BackendOptions& options, MarchBuffers& buffers, BackendStats& stats,
    const MarchSetup& setup, const MarchAdvance& advance) {
  check_transient_arguments(chain, initial, times);
  stats = BackendStats{};
  stats.time_points = times.size();
  const std::span<const std::uint32_t> loop = setup();
  stats.active_states = loop.size();

  std::vector<double>& current = buffers.current;
  current.resize(loop.size());
  for (std::size_t i = 0; i < loop.size(); ++i) current[i] = initial[loop[i]];
  // Only the loop-space entries of the emission buffer are ever rewritten.
  buffers.full_point.assign(initial.size(), 0.0);

  std::vector<std::vector<double>> results;
  if (options.collect_distributions) results.reserve(times.size());
  double current_time = 0.0;
  for (std::size_t idx = 0; idx < times.size(); ++idx) {
    const double dt = times[idx] - current_time;
    if (dt > 0.0) {
      advance(current, dt);
      if (options.renormalize) linalg::normalize_probability(current);
      current_time = times[idx];
    }
    if (options.collect_distributions || on_point) {
      for (std::size_t i = 0; i < loop.size(); ++i) {
        buffers.full_point[loop[i]] = current[i];
      }
      if (options.collect_distributions) results.push_back(buffers.full_point);
      if (on_point) on_point(idx, times[idx], buffers.full_point);
    }
  }
  return results;
}

std::vector<std::uint32_t> support_states(
    const std::vector<double>& distribution) {
  std::vector<std::uint32_t> support;
  for (std::size_t i = 0; i < distribution.size(); ++i) {
    if (distribution[i] != 0.0) support.push_back(static_cast<std::uint32_t>(i));
  }
  return support;
}

void describe_matrix(std::uint64_t nonzeros,
                     const linalg::StructureStats& structure,
                     BackendStats& stats) {
  stats.active_nonzeros = nonzeros;
  stats.matrix_bandwidth = structure.bandwidth;
  stats.groupable_rows = structure.groupable_rows;
  stats.longest_uniform_run = structure.longest_uniform_run;
  stats.diagonal_rows = structure.diagonal_rows;
  stats.longest_diagonal_run = structure.longest_diagonal_run;
}

std::unique_ptr<TransientBackend> make_backend(std::string_view name,
                                               const BackendOptions& options) {
  const auto it = registry().find(name);
  if (it == registry().end()) {
    std::ostringstream message;
    message << "unknown transient engine '" << name << "'; known engines:";
    for (const std::string& known : backend_names()) {
      message << ' ' << known;
    }
    throw InvalidArgument(message.str());
  }
  return it->second(options);
}

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, factory] : registry()) {
    (void)factory;
    names.push_back(name);
  }
  return names;
}

bool is_backend_name(std::string_view name) {
  return registry().find(name) != registry().end();
}

void register_backend(std::string name, BackendFactory factory) {
  KIBAMRM_REQUIRE(!name.empty(), "backend name must be non-empty");
  KIBAMRM_REQUIRE(static_cast<bool>(factory),
                  "backend factory must be callable");
  registry()[std::move(name)] = std::move(factory);
}

}  // namespace kibamrm::engine
