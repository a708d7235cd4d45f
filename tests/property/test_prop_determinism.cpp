// Property: bitwise determinism across thread counts x kernel tiers x
// state orderings.
//
// The library's strongest promise: the parallel backend's sharded spmv,
// the pool-sharded Arnoldi, the dispatched kernel tiers and the
// permutation layer all reproduce the single-thread scalar result BIT
// FOR BIT.  Orderings change the state numbering, not the chain, so
// within one ordering every (threads, tier) combination must agree
// exactly, and across orderings the solved curves agree within the
// 10-eps tolerance the reordering layer pins.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "kibamrm/core/expanded_ctmc.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/linalg/kernels.hpp"
#include "property/generators.hpp"
#include "property/propgen.hpp"

namespace kibamrm::prop {
namespace {

namespace k = linalg::kernels;

/// Restores CPUID dispatch on scope exit, whatever a property pinned.
class DispatchGuard {
 public:
  ~DispatchGuard() { k::clear_dispatch(); }
};

/// The bitwise-contract double tiers this machine can execute.
std::vector<k::Dispatch> double_tiers() {
  std::vector<k::Dispatch> tiers = {k::Dispatch::kScalar};
  if (k::detected_dispatch() != k::Dispatch::kScalar)
    tiers.push_back(k::detected_dispatch());
  return tiers;
}

Verdict bitwise_equal(const std::vector<std::vector<double>>& reference,
                      const std::vector<std::vector<double>>& candidate,
                      const std::string& label) {
  for (std::size_t point = 0; point < reference.size(); ++point) {
    for (std::size_t i = 0; i < reference[point].size(); ++i) {
      if (reference[point][i] != candidate[point][i]) {
        std::ostringstream why;
        why << label << ": point " << point << " state " << i
            << " differs: " << reference[point][i] << " vs "
            << candidate[point][i];
        return Verdict::fail(why.str());
      }
    }
  }
  return Verdict::pass();
}

TEST(Determinism, ParallelBackendBitwiseAcrossThreadCounts) {
  // Chains dense enough that the step span's split (ChunkWindow::split)
  // actually engages the ThreadPool (>= ~16k stored entries); a
  // small-chain run would pass vacuously through the inline path.
  CtmcGenOptions options;
  options.family = CtmcFamily::kErgodic;
  options.min_states = 240;
  options.max_states = 300;
  options.max_time_points = 2;
  options.max_rate_time_product = 250.0;
  check<CtmcCase>(
      "ParallelBitwiseAcrossThreads", ctmc_gen(options),
      [](const CtmcCase& value) {
        const markov::Ctmc chain = value.chain();
        if (chain.generator().nonzeros() < 16384)
          return Verdict::pass();  // inline path; nothing to shard
        std::vector<std::vector<std::vector<double>>> runs;
        for (const std::size_t threads : {1, 2, 4}) {
          auto backend =
              engine::make_backend("parallel", {.threads = threads});
          runs.push_back(
              backend->solve(chain, value.initial, value.times));
        }
        for (std::size_t run = 1; run < runs.size(); ++run) {
          Verdict verdict = bitwise_equal(
              runs[0], runs[run],
              "threads=1 vs threads=" + std::to_string(run == 1 ? 2 : 4));
          if (!verdict.ok) return verdict;
        }
        return Verdict::pass();
      });
}

TEST(Determinism, KrylovBackendBitwiseAcrossThreadCounts) {
  // The pool-sharded CGS2 orthogonalisation must stay on the fixed-block
  // reduction contract: krylov at 1/2/4 threads is bitwise one solve.
  CtmcGenOptions options;
  options.family = CtmcFamily::kErgodic;
  options.min_states = 40;
  options.max_states = 120;
  options.max_time_points = 2;
  options.max_rate_time_product = 400.0;
  check<CtmcCase>(
      "KrylovBitwiseAcrossThreads", ctmc_gen(options),
      [](const CtmcCase& value) {
        const markov::Ctmc chain = value.chain();
        std::vector<std::vector<std::vector<double>>> runs;
        for (const std::size_t threads : {1, 2, 4}) {
          auto backend =
              engine::make_backend("krylov", {.threads = threads});
          runs.push_back(
              backend->solve(chain, value.initial, value.times));
        }
        for (std::size_t run = 1; run < runs.size(); ++run) {
          Verdict verdict =
              bitwise_equal(runs[0], runs[run], "krylov thread variation");
          if (!verdict.ok) return verdict;
        }
        return Verdict::pass();
      });
}

TEST(Determinism, ScenarioBitwiseAcrossThreadsAndTiersPerOrdering) {
  // The full cross product on expanded battery chains: for each state
  // ordering, every (threads, double tier) combination solves the same
  // bits; across orderings the grid-order distributions agree within
  // 10 eps (the reordering layer's documented tolerance).
  const double epsilon = 1e-10;
  check<ScenarioCase>(
      "ScenarioThreadsTiersOrderings", scenario_gen(),
      [epsilon](const ScenarioCase& value) {
        DispatchGuard guard;
        const core::KibamRmModel model = value.model();
        std::vector<std::vector<std::vector<double>>> per_ordering_grid;
        for (const core::StateOrdering ordering :
             {core::StateOrdering::kNone, core::StateOrdering::kLevel}) {
          const auto expanded =
              core::build_expanded_chain(model, value.delta, ordering);
          std::vector<std::vector<std::vector<double>>> runs;
          for (const k::Dispatch tier : double_tiers()) {
            k::set_dispatch(tier);
            for (const std::size_t threads : {1, 2}) {
              auto backend = engine::make_backend(
                  "parallel", {.epsilon = epsilon, .threads = threads});
              if (k::active_dispatch() != tier) {
                return Verdict::fail(
                    "backend construction changed the kernel tier from " +
                    std::string(k::dispatch_name(tier)));
              }
              runs.push_back(backend->solve(expanded.chain,
                                            expanded.initial,
                                            value.times));
            }
          }
          k::clear_dispatch();
          for (std::size_t run = 1; run < runs.size(); ++run) {
            Verdict verdict = bitwise_equal(
                runs[0], runs[run],
                std::string("ordering ") +
                    std::string(core::state_ordering_name(ordering)) +
                    " run " + std::to_string(run));
            if (!verdict.ok) return verdict;
          }
          // Back to grid order for the cross-ordering comparison.
          std::vector<std::vector<double>> grid_order;
          for (const auto& pi : runs[0])
            grid_order.push_back(expanded.to_grid_order(pi));
          per_ordering_grid.push_back(std::move(grid_order));
        }
        for (std::size_t o = 1; o < per_ordering_grid.size(); ++o) {
          for (std::size_t point = 0;
               point < per_ordering_grid[0].size(); ++point) {
            for (std::size_t i = 0;
                 i < per_ordering_grid[0][point].size(); ++i) {
              const double difference =
                  std::abs(per_ordering_grid[0][point][i] -
                           per_ordering_grid[o][point][i]);
              if (difference > 10.0 * epsilon) {
                std::ostringstream why;
                why << "ordering " << o << " point " << point
                    << " state " << i << ": |diff| " << difference
                    << " > 10 eps";
                return Verdict::fail(why.str());
              }
            }
          }
        }
        return Verdict::pass();
      });
}

TEST(Determinism, RepeatedSolveIsBitwiseStable) {
  // Run-to-run determinism of one configuration (the cheapest and most
  // load-bearing form: caches warmed by the first solve must not change
  // the second).
  check<ScenarioCase>(
      "RepeatedSolveStable", scenario_gen(),
      [](const ScenarioCase& value) {
        const auto expanded =
            core::build_expanded_chain(value.model(), value.delta);
        auto backend = engine::make_backend("uniformization");
        const auto first =
            backend->solve(expanded.chain, expanded.initial, value.times);
        const auto second =
            backend->solve(expanded.chain, expanded.initial, value.times);
        return bitwise_equal(first, second, "first vs second solve");
      });
}

}  // namespace
}  // namespace kibamrm::prop
