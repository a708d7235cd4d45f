// Tests for the pluggable transient-engine layer: registry behaviour and
// numerical equivalence of the built-in backends on battery chains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "kibamrm/common/error.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/expanded_ctmc.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/linalg/vector_ops.hpp"
#include "kibamrm/workload/onoff_model.hpp"
#include "kibamrm/workload/simple_model.hpp"

namespace kibamrm::engine {
namespace {

const std::vector<std::string> kBuiltins = {"dense", "krylov",
                                            "uniformization"};

// Small, fast single-well model: capacity 60, current 1, rates of order 1.
core::KibamRmModel tiny_c1() {
  workload::WorkloadBuilder builder;
  const std::size_t on = builder.add_state("on", 1.0);
  const std::size_t off = builder.add_state("off", 0.0);
  builder.add_transition(on, off, 1.0);
  builder.add_transition(off, on, 1.0);
  builder.set_initial_state(on);
  return core::KibamRmModel(builder.build(),
                            {.capacity = 60.0, .available_fraction = 1.0,
                             .flow_constant = 0.0});
}

// The Fig. 8 scenario: on/off workload over the full two-well KiBaM.
core::KibamRmModel fig8_kibam() {
  return core::KibamRmModel(
      workload::make_onoff_model({.frequency = 1.0, .erlang_k = 1,
                                  .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 0.625,
       .flow_constant = 4.5e-5});
}

TEST(EngineRegistry, BuiltinsRegistered) {
  std::vector<std::string> names = backend_names();
  // Other tests in this binary may register their own engines.
  std::erase(names, "custom-for-test");
  EXPECT_EQ(names, (std::vector<std::string>{"dense", "krylov", "parallel",
                                             "uniformization"}));
  for (const char* removed : {"adaptive", "ooc", "sharded"}) {
    EXPECT_FALSE(is_backend_name(removed)) << removed;
    EXPECT_THROW(make_backend(removed), InvalidArgument) << removed;
  }
  EXPECT_FALSE(is_backend_name("gpu"));
}

TEST(EngineRegistry, UnknownNameThrowsListingChoices) {
  try {
    make_backend("gpu");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("gpu"), std::string::npos);
    EXPECT_NE(what.find("uniformization"), std::string::npos);
    EXPECT_NE(what.find("krylov"), std::string::npos);
  }
}

TEST(EngineRegistry, BackendsReportTheirNames) {
  for (const std::string& name : kBuiltins) {
    EXPECT_EQ(make_backend(name)->name(), name);
  }
}

TEST(EngineRegistry, CustomBackendRegistrationWins) {
  register_backend("custom-for-test", [](const BackendOptions& options) {
    return make_backend("uniformization", options);
  });
  EXPECT_TRUE(is_backend_name("custom-for-test"));
  EXPECT_EQ(make_backend("custom-for-test")->name(), "uniformization");
}

TEST(EngineBackends, AgreeOnTinyChainDistributions) {
  // Full-distribution agreement (not just the aggregate curve) on the
  // expanded tiny chain, all pairs within 1e-8.
  const auto expanded = core::build_expanded_chain(tiny_c1(), 5.0);
  const std::vector<double> times = {20.0, 60.0, 120.0, 240.0};

  std::vector<std::vector<std::vector<double>>> all;
  for (const std::string& name : kBuiltins) {
    auto backend = make_backend(name);
    all.push_back(backend->solve(expanded.chain, expanded.initial, times));
    EXPECT_GT(backend->last_stats().iterations, 0u) << name;
    EXPECT_EQ(backend->last_stats().time_points, times.size()) << name;
  }
  for (std::size_t a = 0; a < all.size(); ++a) {
    for (std::size_t b = a + 1; b < all.size(); ++b) {
      for (std::size_t k = 0; k < times.size(); ++k) {
        EXPECT_LT(linalg::linf_distance(all[a][k], all[b][k]), 1e-8)
            << kBuiltins[a] << " vs " << kBuiltins[b] << " at t="
            << times[k];
      }
    }
  }
}

TEST(EngineBackends, AgreeOnEmptyProbabilityThroughApproximation) {
  // Same comparison through the public MarkovianApproximation API on the
  // simple three-state workload: Pr{battery empty at t} within 1e-8.
  const core::KibamRmModel model(
      workload::make_simple_model(),
      {.capacity = 800.0, .available_fraction = 1.0, .flow_constant = 0.0});
  const auto times = core::uniform_grid(2.0, 40.0, 20);

  std::vector<core::LifetimeCurve> curves;
  for (const std::string& name : kBuiltins) {
    core::MarkovianApproximation solver(model,
                                        {.delta = 40.0, .engine = name});
    curves.push_back(solver.solve(times));
    EXPECT_EQ(solver.last_stats().engine, name);
    EXPECT_GT(solver.last_stats().uniformization_iterations, 0u) << name;
  }
  for (std::size_t a = 0; a < curves.size(); ++a) {
    for (std::size_t b = a + 1; b < curves.size(); ++b) {
      EXPECT_LT(curves[a].max_difference(curves[b]), 1e-8)
          << kBuiltins[a] << " vs " << kBuiltins[b];
    }
  }
}

TEST(EngineBackends, AgreeOnFig8KibamScenario) {
  // The acceptance scenario: the paper's Fig. 8 on/off + KiBaM model at a
  // coarse grid every engine can afford (320 expanded states).
  const auto times = core::uniform_grid(6000.0, 20000.0, 15);
  std::vector<core::LifetimeCurve> curves;
  for (const std::string& name : kBuiltins) {
    core::MarkovianApproximation solver(fig8_kibam(),
                                        {.delta = 300.0, .engine = name});
    curves.push_back(solver.solve(times));
  }
  for (std::size_t a = 0; a < curves.size(); ++a) {
    for (std::size_t b = a + 1; b < curves.size(); ++b) {
      EXPECT_LT(curves[a].max_difference(curves[b]), 1e-8)
          << kBuiltins[a] << " vs " << kBuiltins[b];
    }
  }
  // And the curve is the physically sensible one: complete rise.
  EXPECT_LT(curves.front().probabilities().front(), 0.05);
  EXPECT_GT(curves.front().probabilities().back(), 0.99);
}

TEST(EngineBackends, DenseRefusesChainsAboveLimit) {
  const auto expanded = core::build_expanded_chain(tiny_c1(), 5.0);
  auto backend = make_backend("dense", {.dense_state_limit = 4});
  // The dedicated refusal type lets sweep drivers skip the configuration
  // without catching genuine solver errors.
  EXPECT_THROW(backend->solve(expanded.chain, expanded.initial, {10.0}),
               UnsupportedChainError);
}

TEST(EngineBackends, ApproximationRejectsUnknownEngine) {
  EXPECT_THROW(core::MarkovianApproximation(tiny_c1(),
                                            {.delta = 5.0,
                                             .engine = "not-an-engine"}),
               InvalidArgument);
}

TEST(EngineBackends, CollectDistributionsOffReturnsEmpty) {
  const auto expanded = core::build_expanded_chain(tiny_c1(), 5.0);
  for (const std::string& name : kBuiltins) {
    auto backend = make_backend(name, {.collect_distributions = false});
    std::size_t points_seen = 0;
    const auto results = backend->solve(
        expanded.chain, expanded.initial, {10.0, 20.0},
        [&](std::size_t, double, const std::vector<double>& pi) {
          ++points_seen;
          EXPECT_EQ(pi.size(), expanded.chain.state_count());
        });
    EXPECT_TRUE(results.empty()) << name;
    EXPECT_EQ(points_seen, 2u) << name;
  }
}

TEST(EngineBackends, OneShotHelperSelectsEngine) {
  const auto times = core::uniform_grid(40.0, 200.0, 9);
  const auto by_name =
      core::approximate_lifetime_distribution(tiny_c1(), 5.0, times,
                                              "dense");
  const auto by_default =
      core::approximate_lifetime_distribution(tiny_c1(), 5.0, times);
  EXPECT_LT(by_name.max_difference(by_default), 1e-8);
}

}  // namespace
}  // namespace kibamrm::engine
