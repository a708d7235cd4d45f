#include "kibamrm/engine/transient_backend.hpp"

#include <map>
#include <sstream>

#include "kibamrm/common/error.hpp"
#include "kibamrm/engine/dense_expm_backend.hpp"
#include "kibamrm/engine/krylov_backend.hpp"
#include "kibamrm/engine/parallel_backend.hpp"

namespace kibamrm::engine {

namespace {

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

markov::TransientOptions transient_options(const BackendOptions& options) {
  return {.epsilon = options.epsilon,
          .renormalize = options.renormalize,
          .collect_results = options.collect_distributions,
          .steady_state_detection = options.steady_state_detection};
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
