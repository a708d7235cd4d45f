// Tests for the parallel uniformisation backend and the batched
// multi-scenario solve layer (the ThreadPool beneath both has its own
// suite, test_common_thread_pool).
//
// The two properties the CI sanitizer matrix leans on:
//   1. "parallel" agrees with "uniformization" within 1e-10 on the paper's
//      Fig. 8 KiBaM scenario at every thread count, and
//   2. results are *bitwise* identical across thread counts (the gather
//      kernel sums each output entry in fixed CSR order, so the partition
//      cannot change the arithmetic).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "kibamrm/common/error.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/expanded_ctmc.hpp"
#include "kibamrm/engine/parallel_backend.hpp"
#include "kibamrm/engine/plan_cache.hpp"
#include "kibamrm/engine/scenario_batch.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/linalg/expm.hpp"
#include "kibamrm/linalg/kernels.hpp"
#include "kibamrm/linalg/vector_ops.hpp"
#include "kibamrm/markov/ctmc.hpp"
#include "kibamrm/workload/onoff_model.hpp"

namespace kibamrm::engine {
namespace {

// The Fig. 8 scenario: on/off workload over the full two-well KiBaM.
core::KibamRmModel fig8_kibam() {
  return core::KibamRmModel(
      workload::make_onoff_model({.frequency = 1.0, .erlang_k = 1,
                                  .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 0.625,
       .flow_constant = 4.5e-5});
}

TEST(ParallelBackend, RegisteredByName) {
  EXPECT_TRUE(is_backend_name("parallel"));
  EXPECT_EQ(make_backend("parallel")->name(), "parallel");
}

TEST(ParallelBackend, MatchesUniformizationOnFig8AtEveryThreadCount) {
  // The acceptance scenario: full-curve agreement within 1e-10 against the
  // serial production engine at 1, 2 and 8 threads.
  const auto times = core::uniform_grid(6000.0, 20000.0, 15);
  core::MarkovianApproximation reference(
      fig8_kibam(), {.delta = 300.0, .engine = "uniformization"});
  const core::LifetimeCurve expected = reference.solve(times);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    core::MarkovianApproximation solver(
        fig8_kibam(),
        {.delta = 300.0, .engine = "parallel", .threads = threads});
    const core::LifetimeCurve curve = solver.solve(times);
    EXPECT_LT(curve.max_difference(expected), 1e-10)
        << "threads = " << threads;
    EXPECT_EQ(solver.last_stats().uniformization_iterations,
              reference.last_stats().uniformization_iterations)
        << "same Fox-Glynn windows, same DTMC step count";
  }
}

TEST(ParallelBackend, BitwiseDeterministicAcrossThreadCounts) {
  // Above the inline threshold: the shard partition differs per thread
  // count, the arithmetic must not.  This covers the fused kernel
  // (compressed gather plan + steady-state detection), whose per-shard
  // deltas reduce by max, so even the termination decision is
  // partition-independent.
  const auto expanded = core::build_expanded_chain(fig8_kibam(), 50.0);
  const std::vector<double> times = {10000.0};
  auto one = make_backend("parallel", {.threads = 1});
  const auto baseline = one->solve(expanded.chain, expanded.initial, times);
  const std::uint64_t baseline_iterations = one->last_stats().iterations;
  for (const std::size_t threads : {2u, 5u, 8u}) {
    auto backend = make_backend("parallel", {.threads = threads});
    const auto result =
        backend->solve(expanded.chain, expanded.initial, times);
    // Bitwise equality, not a tolerance: the gather kernel's summation
    // order is independent of the shard partition.
    EXPECT_EQ(result, baseline) << "threads = " << threads;
    EXPECT_EQ(backend->last_stats().iterations, baseline_iterations)
        << "early termination must fire at the same step";
  }
}

TEST(ParallelBackend, DetectionOnOffAgreeOnFig8Curve) {
  // The acceptance property of the early-termination optimisation: the
  // full Fig. 8 lifetime curve with detection on agrees with detection
  // off within 10 * epsilon, while actually skipping iterations.
  // Delta = 50 is the coarsest fig8 grid whose curve saturates inside the
  // horizon (coarser chains still carry ~1e-4 active mass at t = 20000,
  // where detection correctly refuses to fire).
  const auto times = core::uniform_grid(6000.0, 20000.0, 12);
  core::MarkovianApproximation on(
      fig8_kibam(), {.delta = 50.0, .engine = "parallel", .threads = 4});
  core::MarkovianApproximation off(fig8_kibam(),
                                   {.delta = 50.0,
                                    .engine = "parallel",
                                    .threads = 4,
                                    .steady_state_detection = false});
  const core::LifetimeCurve curve_on = on.solve(times);
  const core::LifetimeCurve curve_off = off.solve(times);
  EXPECT_LT(curve_on.max_difference(curve_off), 10.0 * 1e-10);
  EXPECT_GT(on.last_stats().iterations_saved, 0u);
  // Closed accounting: skipped terms + executed terms == the full window
  // cost the detection-off run paid.
  EXPECT_EQ(on.last_stats().uniformization_iterations +
                on.last_stats().iterations_saved,
            off.last_stats().uniformization_iterations);
}

// A strongly connected banded ring of 512 states, each with 16 neighbours
// either side -- enough stored entries for the pool-sharded step to engage
// at 4 threads, small enough for the dense oracle -- plus 8 feeder states
// no state leads back to, so the reachable closure from the ring is the
// ring alone.
markov::Ctmc pooled_ring_chain() {
  const std::size_t ring = 512;
  const std::size_t n = ring + 8;
  std::vector<std::vector<double>> rates(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < ring; ++i) {
    for (std::size_t d = 1; d <= 16; ++d) {
      rates[i][(i + d) % ring] =
          0.05 * static_cast<double>(1 + (7 * i + d) % 5);
      rates[i][(i + ring - d) % ring] =
          0.04 * static_cast<double>(1 + (3 * i + d) % 4);
    }
  }
  for (std::size_t i = ring; i < n; ++i) rates[i][i - ring] = 1.0;
  return markov::ctmc_from_rates(rates);
}

TEST(ParallelBackend, FullDistributionsMatchSerialBackend) {
  // The pooled ring is just large enough for the pool-sharded step to
  // engage, so this exercises the sharded path at a fraction of a fig8
  // chain's cost.
  const markov::Ctmc chain = pooled_ring_chain();
  std::vector<double> initial(chain.state_count(), 0.0);
  initial[0] = 1.0;
  const std::vector<double> times = {1.0, 4.0};
  auto serial = make_backend("uniformization");
  const auto expected = serial->solve(chain, initial, times);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    auto backend = make_backend("parallel", {.threads = threads});
    const auto actual = backend->solve(chain, initial, times);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t k = 0; k < times.size(); ++k) {
      EXPECT_LT(linalg::linf_distance(actual[k], expected[k]), 1e-10)
          << "threads = " << threads << ", t = " << times[k];
    }
    const BackendStats& stats = backend->last_stats();
    EXPECT_EQ(stats.time_points, times.size());
    EXPECT_GT(stats.iterations, 0u);
    EXPECT_GT(stats.uniformization_rate, 0.0);
    EXPECT_EQ(pool_pays_off(threads, stats.active_nonzeros,
                            stats.active_states),
              threads > 1)
        << "the chain must be large enough to exercise the pool path";
  }
}

TEST(ParallelBackend, FusedMatchesDenseExpmOracle) {
  // The pool-sharded fused kernel over the compacted closure against the
  // independent dense matrix exponential.
  const markov::Ctmc chain = pooled_ring_chain();
  std::vector<double> initial(chain.state_count(), 0.0);
  initial[0] = 0.5;
  initial[100] = 0.5;
  const std::vector<double> times = {0.5, 2.0};
  auto backend = make_backend("parallel", {.threads = 4});
  const auto actual = backend->solve(chain, initial, times);
  ASSERT_EQ(actual.size(), times.size());
  for (std::size_t k = 0; k < times.size(); ++k) {
    const std::vector<double> expected =
        linalg::expm(chain.dense_generator().scaled(times[k]))
            .left_multiply(initial);
    EXPECT_LT(linalg::linf_distance(actual[k], expected), 1e-10)
        << "t=" << times[k];
  }
  const BackendStats& stats = backend->last_stats();
  EXPECT_EQ(stats.active_states, 512u);
  EXPECT_TRUE(pool_pays_off(4, stats.active_nonzeros, stats.active_states))
      << "the chain must be large enough to exercise the pool path";
}

TEST(MassWindow, EnginesAgreeBytewiseWhereTheWindowDrops) {
  // Fig. 8 at Delta = 50 drops probability mass (the cold chunks at the
  // blob's edges), so the windowed step must apply the same drop rule to
  // the same chunks at 1 and 4 lanes: the lane counts cut the step span
  // into different shard partitions and must still agree byte for byte.
  const auto expanded = core::build_expanded_chain(fig8_kibam(), 50.0);
  const auto times = core::uniform_grid(4000.0, 12000.0, 5);
  auto reference = make_backend("parallel", {.threads = 1});
  const auto expected =
      reference->solve(expanded.chain, expanded.initial, times);
  const BackendStats reference_stats = reference->last_stats();
  ASSERT_GT(reference_stats.dropped_mass, 0.0)
      << "the scenario must exercise the drop";
  EXPECT_LT(reference_stats.rows_iterated,
            reference_stats.iterations * reference_stats.active_states);

  struct Case {
    const char* engine;
    BackendOptions options;
  };
  const Case cases[] = {
      {"uniformization", {}},
      {"parallel", {.threads = 4}},
  };
  for (const Case& c : cases) {
    auto backend = make_backend(c.engine, c.options);
    const auto actual =
        backend->solve(expanded.chain, expanded.initial, times);
    const std::string label = std::string(c.engine) + " threads " +
                              std::to_string(c.options.threads);
    ASSERT_EQ(actual.size(), expected.size()) << label;
    for (std::size_t k = 0; k < times.size(); ++k) {
      ASSERT_EQ(actual[k].size(), expected[k].size()) << label;
      EXPECT_EQ(std::memcmp(actual[k].data(), expected[k].data(),
                            expected[k].size() * sizeof(double)),
                0)
          << label << " at t = " << times[k];
    }
    const BackendStats& stats = backend->last_stats();
    EXPECT_EQ(stats.iterations, reference_stats.iterations) << label;
    EXPECT_EQ(std::memcmp(&stats.dropped_mass, &reference_stats.dropped_mass,
                          sizeof(double)),
              0)
        << label << ": dropped " << stats.dropped_mass << " against "
        << reference_stats.dropped_mass;
    EXPECT_EQ(stats.rows_iterated, reference_stats.rows_iterated) << label;
  }
}

TEST(GatherPlanCache, RebuildsAnEntryThatCannotServeTheChain) {
  // A cached plan serves only the chain size it was built for and only
  // seeds inside its closure -- the cheap invariants behind a key match.
  const markov::Ctmc ring = pooled_ring_chain();
  const double rate = markov::UniformizationDriver::select_rate(ring);
  const std::vector<std::uint32_t> seeds = {0, 100};
  const auto plan = build_cached_gather_plan(ring.generator(), rate, seeds);
  EXPECT_EQ(plan->state_count, ring.state_count());
  EXPECT_TRUE(plan->serves(ring.generator(), seeds));
  // State 515 is a feeder outside the ring's closure.
  const std::vector<std::uint32_t> outside = {0, 515};
  EXPECT_FALSE(plan->serves(ring.generator(), outside));
  const markov::Ctmc small = markov::ctmc_from_rates({{0.0, 1.0}, {1.0, 0.0}});
  const std::vector<std::uint32_t> zero = {0};
  EXPECT_FALSE(plan->serves(small.generator(), zero));

  GatherPlanCache cache;
  const auto first = cache.obtain(ring.generator(), rate, seeds);
  const auto again = cache.obtain(ring.generator(), rate, seeds);
  EXPECT_EQ(first, again);
  EXPECT_EQ(cache.plans_built(), 1u);
  EXPECT_EQ(cache.plans_reused(), 1u);
  EXPECT_TRUE(again->serves(ring.generator(), seeds));
}

TEST(GatherPlanCache, SecondObtainReusesTheFirstBuild) {
  const auto expanded = core::build_expanded_chain(fig8_kibam(), 300.0);
  std::vector<std::uint32_t> seeds;
  for (std::size_t i = 0; i < expanded.initial.size(); ++i) {
    if (expanded.initial[i] != 0.0) {
      seeds.push_back(static_cast<std::uint32_t>(i));
    }
  }
  const double rate = 1.02 * expanded.chain.max_exit_rate();
  GatherPlanCache cache;
  const auto first = cache.obtain(expanded.chain.generator(), rate, seeds);
  const auto second = cache.obtain(expanded.chain.generator(), rate, seeds);
  EXPECT_EQ(first.get(), second.get()) << "same chain must share one plan";
  EXPECT_EQ(cache.plans_built(), 1u);
  EXPECT_EQ(cache.plans_reused(), 1u);
  // A different rate is a different solve setup.
  const auto third =
      cache.obtain(expanded.chain.generator(), 2.0 * rate, seeds);
  EXPECT_NE(first.get(), third.get());
  EXPECT_EQ(cache.plans_built(), 2u);
}

TEST(ScenarioBatch, SharesOnePlanAcrossIdenticalStructures) {
  // Three scenarios, identical Q*-structure (same model, same Delta),
  // different time grids: one plan built, two served from the cache --
  // and the curves stay bitwise equal to uncached sequential solves.
  std::vector<Scenario> scenarios;
  for (const double horizon : {18000.0, 20000.0, 22000.0}) {
    scenarios.push_back({"h=" + std::to_string(horizon), fig8_kibam(), 300.0,
                         core::uniform_grid(6000.0, horizon, 6)});
  }
  ScenarioBatch batch({.engine = "parallel", .threads = 2});
  const auto results = batch.solve_all(scenarios);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(batch.last_stats().plans_built, 1u);
  EXPECT_EQ(batch.last_stats().plans_reused, 2u);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    ASSERT_TRUE(results[i].curve.has_value());
    core::MarkovianApproximation solo(
        scenarios[i].model,
        {.delta = scenarios[i].delta, .engine = "parallel", .threads = 1});
    EXPECT_EQ(results[i].curve->probabilities(),
              solo.solve(scenarios[i].times).probabilities())
        << "cache hit changed scenario " << i;
  }
}

TEST(ScenarioBatch, MatchesSequentialSolvesAndThreadCountInvariant) {
  const auto times = core::uniform_grid(6000.0, 20000.0, 8);
  std::vector<Scenario> scenarios;
  for (const double delta : {450.0, 300.0, 900.0}) {
    scenarios.push_back({"Delta=" + std::to_string(delta), fig8_kibam(),
                         delta, times});
  }

  std::vector<std::vector<double>> reference;
  std::vector<core::ApproximationStats> reference_stats;
  for (const Scenario& scenario : scenarios) {
    core::MarkovianApproximation solver(
        scenario.model, {.delta = scenario.delta, .engine = "uniformization"});
    reference.push_back(solver.solve(times).probabilities());
    reference_stats.push_back(solver.last_stats());
  }

  for (const std::size_t threads : {1u, 3u}) {
    ScenarioBatch batch({.engine = "uniformization", .threads = threads});
    const auto results = batch.solve_all(scenarios);
    ASSERT_EQ(results.size(), scenarios.size());
    EXPECT_EQ(batch.last_stats().scenarios, scenarios.size());
    EXPECT_EQ(batch.last_stats().skipped, 0u);
    EXPECT_EQ(batch.last_stats().threads, threads);
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_FALSE(results[i].skipped);
      ASSERT_TRUE(results[i].curve.has_value());
      EXPECT_EQ(results[i].label, scenarios[i].label) << "positional order";
      // Determinism across thread counts is bitwise: same chains, same
      // engine arithmetic, results only land in different lanes.
      EXPECT_EQ(results[i].curve->probabilities(), reference[i])
          << "threads = " << threads << ", scenario " << i;
      // Batched and sequential solves share one stats record type, so
      // every engine counter matches the sequential solve's.
      const core::ApproximationStats& stats = results[i].stats;
      const core::ApproximationStats& expected = reference_stats[i];
      EXPECT_GT(stats.expanded_states, 0u);
      EXPECT_GT(stats.uniformization_iterations, 0u);
      EXPECT_EQ(stats.uniformization_iterations, stats.iterations);
      EXPECT_EQ(stats.iterations, expected.iterations);
      EXPECT_EQ(stats.iterations_saved, expected.iterations_saved);
      EXPECT_EQ(stats.steady_state_hits, expected.steady_state_hits);
      EXPECT_EQ(stats.time_points, expected.time_points);
      EXPECT_EQ(stats.time_points, times.size());
      EXPECT_EQ(stats.active_states, expected.active_states);
      EXPECT_EQ(stats.active_nonzeros, expected.active_nonzeros);
    }
  }
}

TEST(KernelDispatch, BackendConstructionKeepsPin) {
  // The kernel tier is process state, set only by set_dispatch /
  // apply_dispatch / KIBAMRM_KERNELS: constructing and running solvers
  // with default options must leave a pin in place.
  linalg::kernels::set_dispatch(linalg::kernels::Dispatch::kScalar);
  const auto expect_scalar = [](const char* after) {
    EXPECT_EQ(linalg::kernels::active_dispatch(),
              linalg::kernels::Dispatch::kScalar)
        << "after " << after;
  };
  const auto backend = make_backend("parallel");
  expect_scalar("make_backend");
  const auto times = core::uniform_grid(6000.0, 20000.0, 3);
  core::MarkovianApproximation solver(fig8_kibam(), {.delta = 900.0});
  expect_scalar("MarkovianApproximation construction");
  solver.solve(times);
  expect_scalar("MarkovianApproximation::solve");
  ScenarioBatch batch({.engine = "parallel", .threads = 2});
  expect_scalar("ScenarioBatch construction");
  batch.solve_all({{"a", fig8_kibam(), 900.0, times},
                   {"b", fig8_kibam(), 450.0, times}});
  expect_scalar("ScenarioBatch::solve_all");
  linalg::kernels::clear_dispatch();
}

TEST(ScenarioBatch, SkipsUnsupportedChainsWithoutAborting) {
  const auto times = core::uniform_grid(6000.0, 20000.0, 5);
  // Delta = 450 fits under the dense engine's default state limit of 1024,
  // Delta = 100 does not.
  std::vector<Scenario> scenarios = {
      {"coarse", fig8_kibam(), 450.0, times},
      {"fine", fig8_kibam(), 100.0, times},
  };
  ScenarioBatch batch({.engine = "dense", .threads = 2});
  const auto results = batch.solve_all(scenarios);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].curve.has_value());
  EXPECT_TRUE(results[1].skipped);
  EXPECT_FALSE(results[1].skip_reason.empty());
  EXPECT_EQ(batch.last_stats().skipped, 1u);
}

/// Test-local engine: "uniformization", except that a chain with exit
/// rates above 1e9 fails with a NumericalError -- a solver convergence
/// failure on exactly one scenario of a batch.
class FailsOnStiffChains final : public TransientBackend {
 public:
  explicit FailsOnStiffChains(const BackendOptions& options)
      : inner_(make_backend("uniformization", options)) {}

  std::string_view name() const override { return "fails-on-stiff"; }

  std::vector<std::vector<double>> solve(
      const markov::Ctmc& chain, const std::vector<double>& initial,
      const std::vector<double>& times,
      const PointCallback& on_point) override {
    if (chain.max_exit_rate() > 1e9) {
      throw NumericalError("step size underflow on a stiff chain");
    }
    return inner_->solve(chain, initial, times, on_point);
  }

  const BackendStats& last_stats() const override {
    return inner_->last_stats();
  }

 private:
  std::unique_ptr<TransientBackend> inner_;
};

TEST(ScenarioBatch, IsolatesANumericalFailureToItsScenario) {
  // One poisoned scenario (a 1e11 Hz workload the test engine fails on)
  // must not abort the batch: every other scenario still returns its
  // curve, and the failure is recorded in place.  Before the `failed`
  // flag, the NumericalError propagated out of solve_all() and discarded
  // all completed results.
  register_backend("fails-on-stiff", [](const BackendOptions& options) {
    return std::make_unique<FailsOnStiffChains>(options);
  });
  const auto times = core::uniform_grid(6000.0, 20000.0, 5);
  const core::KibamRmModel poisoned(
      workload::make_onoff_model({.frequency = 1e11, .erlang_k = 1,
                                  .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 0.625,
       .flow_constant = 4.5e-5});
  std::vector<Scenario> scenarios = {
      {"mild-a", fig8_kibam(), 450.0, times},
      {"poisoned", poisoned, 450.0, times},
      {"mild-b", fig8_kibam(), 300.0, times},
  };
  ScenarioBatch batch({.engine = "fails-on-stiff", .threads = 2});
  const auto results = batch.solve_all(scenarios);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].curve.has_value());
  EXPECT_TRUE(results[2].curve.has_value());
  EXPECT_FALSE(results[0].failed);
  EXPECT_FALSE(results[2].failed);
  EXPECT_TRUE(results[1].failed);
  EXPECT_FALSE(results[1].curve.has_value());
  EXPECT_FALSE(results[1].skipped) << "failure is not a by-design skip";
  EXPECT_NE(results[1].failure_reason.find("step size underflow"),
            std::string::npos)
      << results[1].failure_reason;
  EXPECT_EQ(batch.last_stats().failed, 1u);
  EXPECT_EQ(batch.last_stats().skipped, 0u);
}

TEST(ScenarioBatch, RejectsUnknownEngineUpFront) {
  EXPECT_THROW(ScenarioBatch({.engine = "not-an-engine"}), InvalidArgument);
}

TEST(ScenarioBatch, EmptyBatchIsANoOp) {
  ScenarioBatch batch({.threads = 2});
  EXPECT_TRUE(batch.solve_all({}).empty());
  EXPECT_EQ(batch.last_stats().scenarios, 0u);
}

}  // namespace
}  // namespace kibamrm::engine
