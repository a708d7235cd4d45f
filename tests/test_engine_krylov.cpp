// Stiff-chain regression suite for the Krylov transient backend: chains
// whose stiffness defeats an explicit stepper must solve through
// "krylov", on the mild fig8 grid "krylov" must agree with the
// production uniformisation engine to the usual budget, and its mass
// window must drop within budget, skip rows and stay lane-independent.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "kibamrm/common/error.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/expanded_ctmc.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/linalg/vector_ops.hpp"
#include "kibamrm/workload/onoff_model.hpp"
#include "kibamrm/workload/workload_model.hpp"

namespace kibamrm::engine {
namespace {

// The Fig. 8 scenario: on/off workload over the full two-well KiBaM.
core::KibamRmModel fig8_kibam(double frequency = 1.0) {
  return core::KibamRmModel(
      workload::make_onoff_model({.frequency = frequency, .erlang_k = 1,
                                  .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 0.625,
       .flow_constant = 4.5e-5});
}

// Fast flip-flop A<->B at 1e12/s with slow absorption B->C at 0.05/s: the
// stable step of an explicit method is ~1e-14 s against horizons of
// minutes, while the quasi-steady solution is analytically
//   pi_C(t) = 1 - exp(-0.025 t)   up to O(fast/slow) corrections.
markov::Ctmc stiff_flip_flop() {
  return markov::ctmc_from_rates(
      {{0.0, 1e12, 0.0}, {1e12, 0.0, 0.05}, {0.0, 0.0, 0.0}});
}

TEST(KrylovStiff, KrylovSolvesTheStiffFlipFlop) {
  const markov::Ctmc chain = stiff_flip_flop();
  auto krylov = make_backend("krylov");
  const auto results = krylov->solve(chain, {1.0, 0.0, 0.0}, {40.0, 120.0});
  ASSERT_EQ(results.size(), 2u);
  // Against the quasi-steady analytic solution; the tolerance is the
  // round-off floor of *any* double-precision method on a chain whose
  // stiffness ratio is ~2e13 (matvecs cancel +-1e12-scale terms), not a
  // property of the Krylov scheme -- the dense Pade oracle carries a
  // similar error here.
  EXPECT_NEAR(results[0][2], 1.0 - std::exp(-0.025 * 40.0), 5e-3);
  EXPECT_NEAR(results[1][2], 1.0 - std::exp(-0.025 * 120.0), 5e-3);
  EXPECT_TRUE(linalg::is_probability_vector(results[1], 1e-6));

  const BackendStats& stats = krylov->last_stats();
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_GT(stats.substeps, 0u);
  EXPECT_GT(stats.hessenberg_expms, 0u);
  // The 3-state chain exhausts its Krylov space: happy breakdown caps
  // the subspace at the chain dimension.
  EXPECT_EQ(stats.krylov_dim, 3u);
}

TEST(KrylovStiff, MatchesUniformizationWithinTenEpsilonOnFig8Grid) {
  const auto times = core::uniform_grid(6000.0, 20000.0, 15);
  const double epsilon = 1e-10;
  core::MarkovianApproximation uniformization(
      fig8_kibam(), {.delta = 300.0, .epsilon = epsilon,
                     .engine = "uniformization"});
  core::MarkovianApproximation krylov(
      fig8_kibam(), {.delta = 300.0, .epsilon = epsilon,
                     .engine = "krylov"});
  const auto reference = uniformization.solve(times);
  const auto curve = krylov.solve(times);
  EXPECT_LT(reference.max_difference(curve), 10.0 * epsilon);
  EXPECT_EQ(krylov.last_stats().engine, "krylov");
  EXPECT_GT(krylov.last_stats().substeps, 0u);
  EXPECT_GT(krylov.last_stats().hessenberg_expms, 0u);
  EXPECT_EQ(krylov.last_stats().krylov_dim, 30u);
}

TEST(KrylovStiff, SolvesTheStiffExpandedBatteryChain) {
  // A 1e11 Hz on/off workload makes the expanded KiBaM chain stiff by a
  // factor ~1e12 against the lifetime horizon: krylov integrates through
  // the quasi-steady regime in a few hundred sub-steps.
  const auto times = core::uniform_grid(6000.0, 20000.0, 8);
  core::MarkovianApproximation krylov(
      fig8_kibam(1e11), {.delta = 300.0, .engine = "krylov"});
  const auto curve = krylov.solve(times);

  // Independent oracle: at 1e11 Hz the on/off draw averages to a
  // constant 0.48 A (thinning limit), whose expanded chain is mild and
  // solvable by uniformisation.  Agreement is bounded by the operator
  // round-off floor eps * ||Q|| * horizon ~ 1e-2, not by either solver.
  workload::WorkloadBuilder builder;
  builder.set_initial_state(builder.add_state("avg", 0.48));
  const core::KibamRmModel averaged(
      builder.build(), {.capacity = 7200.0, .available_fraction = 0.625,
                        .flow_constant = 4.5e-5});
  core::MarkovianApproximation reference(
      averaged, {.delta = 300.0, .engine = "uniformization"});
  EXPECT_LT(reference.solve(times).max_difference(curve), 2e-2);
}

TEST(KrylovStiff, BitwiseDeterministicAcrossThreadCounts) {
  // Delta = 50 expands to ~35k stored entries, enough to engage the
  // sharded matvec; the gather kernel makes the solve bitwise identical
  // for every thread count.
  const auto expanded = core::build_expanded_chain(fig8_kibam(), 50.0);
  const std::vector<double> times = {8000.0, 14000.0};
  auto serial = make_backend("krylov", {.threads = 1});
  auto threaded = make_backend("krylov", {.threads = 4});
  const auto reference = serial->solve(expanded.chain, expanded.initial,
                                       times);
  const auto result = threaded->solve(expanded.chain, expanded.initial,
                                      times);
  ASSERT_EQ(reference.size(), result.size());
  for (std::size_t k = 0; k < reference.size(); ++k) {
    EXPECT_EQ(reference[k], result[k]) << "t = " << times[k];
  }
  EXPECT_EQ(serial->last_stats().iterations,
            threaded->last_stats().iterations);
}

TEST(KrylovStiff, SubspaceKnobIsHonoured) {
  const auto expanded = core::build_expanded_chain(fig8_kibam(), 300.0);
  const std::vector<double> times = {10000.0};
  // Fixed-dimension mode: this test compares the cost of two pinned
  // subspace sizes, which adaptivity would (correctly) equalise.
  auto wide =
      make_backend("krylov", {.krylov_dim = 20, .krylov_adaptive_dim = false});
  auto narrow =
      make_backend("krylov", {.krylov_dim = 8, .krylov_adaptive_dim = false});
  const auto a = wide->solve(expanded.chain, expanded.initial, times);
  const auto b = narrow->solve(expanded.chain, expanded.initial, times);
  EXPECT_EQ(wide->last_stats().krylov_dim, 20u);
  EXPECT_EQ(narrow->last_stats().krylov_dim, 8u);
  // A narrower subspace pays with more, smaller sub-steps but keeps the
  // same error contract.
  EXPECT_GT(narrow->last_stats().substeps, wide->last_stats().substeps);
  EXPECT_LT(linalg::linf_distance(a.front(), b.front()), 1e-8);
}

TEST(KrylovAdaptiveDim, StillMatchesUniformizationTightlyOnFig8Grid) {
  // The adaptive dimension trades cost only; the accept/reject test is
  // unchanged, so agreement with the production uniformisation engine
  // must stay well inside the budget (PR 4 measured ~2e-12 at fixed m).
  const auto times = core::uniform_grid(6000.0, 20000.0, 15);
  core::MarkovianApproximation uniformization(
      fig8_kibam(), {.delta = 300.0, .engine = "uniformization"});
  core::MarkovianApproximation krylov(
      fig8_kibam(), {.delta = 300.0, .engine = "krylov"});
  EXPECT_LT(uniformization.solve(times).max_difference(krylov.solve(times)),
            1e-11);
}

TEST(KrylovAdaptiveDim, SavesOrthogonalisationWorkOnTheMildChain) {
  // On the mild fig8 chain the a-posteriori estimate sits far below the
  // budget at m = 30; the adaptive controller shrinks the subspace.  The
  // contract is about the m^2 n orthogonalisation cost that dominates
  // large chains (a smaller m legitimately spends a few *more* matvecs
  // on extra sub-steps -- that trade is the point): the summed dim^2
  // work must drop measurably against the pinned dimension.  The saving
  // must not hinge on the state numbering, which only moves rounding.
  for (const auto ordering :
       {core::StateOrdering::kLevel, core::StateOrdering::kNone}) {
    SCOPED_TRACE(core::state_ordering_name(ordering));
    const auto expanded =
        core::build_expanded_chain(fig8_kibam(), 300.0, ordering);
    const auto times = core::uniform_grid(6000.0, 20000.0, 15);
    auto adaptive = make_backend("krylov");
    auto fixed = make_backend("krylov", {.krylov_adaptive_dim = false});
    adaptive->solve(expanded.chain, expanded.initial, times);
    fixed->solve(expanded.chain, expanded.initial, times);
    EXPECT_LT(adaptive->last_stats().krylov_ortho_work,
              (3 * fixed->last_stats().krylov_ortho_work) / 4);
    // The first factorisation runs at the cap, so the max-dim stat still
    // reports it.
    EXPECT_EQ(adaptive->last_stats().krylov_dim, 30u);
  }
}

TEST(KrylovAdaptiveDim, BitwiseDeterministicAcrossThreadCounts) {
  // The adaptive decisions feed off the (bitwise thread-independent)
  // error estimates, so the full adaptive solve stays bitwise identical
  // across thread counts too.
  const auto expanded = core::build_expanded_chain(fig8_kibam(), 50.0);
  const std::vector<double> times = {8000.0, 14000.0};
  auto serial = make_backend("krylov", {.threads = 1});
  auto threaded = make_backend("krylov", {.threads = 8});
  const auto reference =
      serial->solve(expanded.chain, expanded.initial, times);
  const auto result =
      threaded->solve(expanded.chain, expanded.initial, times);
  ASSERT_EQ(reference.size(), result.size());
  for (std::size_t k = 0; k < reference.size(); ++k) {
    EXPECT_EQ(reference[k], result[k]) << "t = " << times[k];
  }
}

// Fig. 8 at Delta = 25 on the fig8 driver's grid, solved once at 1 and
// at 4 lanes for the whole suite: the mass blob covers a fraction of the
// closure, so the window drops cold chunks and the matvecs skip rows.
class KrylovWindow : public ::testing::Test {
 protected:
  struct Run {
    core::LifetimeCurve curve;
    core::ApproximationStats stats;
  };

  static void SetUpTestSuite() {
    for (const std::size_t threads : {1u, 4u}) {
      core::MarkovianApproximation solver(
          fig8_kibam(),
          {.delta = 25.0, .engine = "krylov", .threads = threads});
      core::LifetimeCurve curve = solver.solve(times());
      runs().push_back({std::move(curve), solver.last_stats()});
    }
  }
  static void TearDownTestSuite() { runs().clear(); }

  static std::vector<double> times() {
    return core::uniform_grid(6000.0, 20000.0, 57);
  }
  static std::vector<Run>& runs() {
    static std::vector<Run> solved;
    return solved;
  }
};

TEST_F(KrylovWindow, DropsWithinTheBudgetAndSkipsRowsOnFig8Delta25) {
  ASSERT_EQ(runs().size(), 2u);
  const core::ApproximationStats& stats = runs()[1].stats;
  // Each accepted sub-step drops less than epsilon tau / (100 dt), so one
  // increment drops less than epsilon / 100.
  EXPECT_GT(stats.dropped_mass, 0.0);
  EXPECT_LE(stats.dropped_mass,
            static_cast<double>(times().size()) * 1e-10 / 100.0);
  // A full sweep writes iterations * active_states rows; the windowed
  // matvecs wrote 86.6% of that when the window was introduced.
  const double full_sweep = static_cast<double>(stats.iterations) *
                            static_cast<double>(stats.active_states);
  EXPECT_GT(stats.rows_iterated, 0u);
  EXPECT_LE(static_cast<double>(stats.rows_iterated), 0.92 * full_sweep);
}

TEST_F(KrylovWindow, CurvesAndStatsBitwiseAcrossLaneCounts) {
  // Every window decision reads the state, which is bitwise the same at
  // every lane count, so the spans, drops and curves are too.
  ASSERT_EQ(runs().size(), 2u);
  const Run& serial = runs()[0];
  const Run& pooled = runs()[1];
  EXPECT_EQ(pooled.curve.probabilities(), serial.curve.probabilities());
  const core::ApproximationStats& a = pooled.stats;
  const core::ApproximationStats& b = serial.stats;
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.substeps, b.substeps);
  EXPECT_EQ(a.krylov_ortho_work, b.krylov_ortho_work);
  EXPECT_EQ(a.hessenberg_expms, b.hessenberg_expms);
  EXPECT_EQ(a.rows_iterated, b.rows_iterated);
  EXPECT_EQ(a.dropped_mass, b.dropped_mass);
}

TEST(KrylovStiff, AllAbsorbingChainIsIdentity) {
  const markov::Ctmc chain = markov::ctmc_from_rates(
      {{0.0, 0.0}, {0.0, 0.0}});
  auto krylov = make_backend("krylov");
  const auto results = krylov->solve(chain, {0.25, 0.75}, {5.0, 50.0});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[1][0], 0.25);
  EXPECT_EQ(results[1][1], 0.75);
  EXPECT_EQ(krylov->last_stats().iterations, 0u);
}

}  // namespace
}  // namespace kibamrm::engine
