// Stored-data checks for the transient engines:
//   * golden curves -- the paper's Fig. 8 at Delta = 100 and 50, stored as
//     hex-float in tests/data/test_engine_golden/ by a full-sweep solve
//     (before the mass window existed), which the windowed uniformisation
//     solve must reproduce within the mass it reports dropping, and the
//     krylov engine within a stated tolerance;
//   * exact counts -- the uniformisation work counters of Fig. 8 at
//     Delta = 50, which no change to how a step executes may move, and
//     the share of rows the mass window still steps at Delta = 25.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/workload/onoff_model.hpp"
#include "support/test_data.hpp"

namespace kibamrm::core {
namespace {

// The Fig. 8 scenario: on/off workload over the full two-well KiBaM.
KibamRmModel fig8_kibam() {
  return KibamRmModel(
      workload::make_onoff_model({.frequency = 1.0, .erlang_k = 1,
                                  .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 0.625,
       .flow_constant = 4.5e-5});
}

// The fig8 driver's default grid, on which the golden files were made.
std::vector<double> fig8_times() { return uniform_grid(6000.0, 20000.0, 57); }

void expect_matches_golden(double delta, const std::string& file) {
  const testing::GoldenCurve golden = testing::load_golden_curve(file);
  ASSERT_EQ(golden.times, fig8_times()) << file << " holds another grid";
  for (const std::size_t threads : {1u, 4u}) {
    MarkovianApproximation solver(
        fig8_kibam(),
        {.delta = delta, .engine = "parallel", .threads = threads});
    const LifetimeCurve curve = solver.solve(golden.times);
    // The window moves a curve by at most the mass it dropped, and the
    // renormalisation that spreads the loss back by as much again; 1e-15
    // covers the rounding of the operands the drops changed.
    const double dropped = solver.last_stats().dropped_mass;
    const double bound = 2.0 * dropped + 1e-15;
    for (std::size_t k = 0; k < golden.times.size(); ++k) {
      EXPECT_LE(std::abs(curve.probabilities()[k] - golden.probabilities[k]),
                bound)
          << file << " at t = " << golden.times[k] << ", threads "
          << threads << ", dropped mass " << dropped;
    }
  }
}

// The krylov engine is a different approximation of the same
// exponential, so it meets the files within a tolerance: 1e-10, the
// per-increment budget, against a measured maximum of about 1e-11.
void expect_krylov_near_golden(double delta, const std::string& file) {
  const testing::GoldenCurve golden = testing::load_golden_curve(file);
  ASSERT_EQ(golden.times, fig8_times()) << file << " holds another grid";
  for (const std::size_t threads : {1u, 4u}) {
    MarkovianApproximation solver(
        fig8_kibam(),
        {.delta = delta, .engine = "krylov", .threads = threads});
    const LifetimeCurve curve = solver.solve(golden.times);
    for (std::size_t k = 0; k < golden.times.size(); ++k) {
      EXPECT_NEAR(curve.probabilities()[k], golden.probabilities[k], 1e-10)
          << file << " at t = " << golden.times[k] << ", threads "
          << threads;
    }
  }
}

TEST(GoldenCurves, Fig8Delta100WithinTheDroppedMass) {
  expect_matches_golden(100.0, "fig8_d100.txt");
}

TEST(GoldenCurves, Fig8Delta50WithinTheDroppedMass) {
  expect_matches_golden(50.0, "fig8_d50.txt");
}

TEST(GoldenCurves, Fig8Delta100KrylovWithinTolerance) {
  expect_krylov_near_golden(100.0, "fig8_d100.txt");
}

TEST(GoldenCurves, Fig8Delta50KrylovWithinTolerance) {
  expect_krylov_near_golden(50.0, "fig8_d50.txt");
}

TEST(ExactCounts, Fig8Delta50UnderParallel) {
  // Steps, steady-state savings and the iterated matrix's size as the
  // full-sweep solve reported them: the mass window changes which rows a
  // step visits, never how many steps run or where detection fires.
  MarkovianApproximation solver(
      fig8_kibam(), {.delta = 50.0, .engine = "parallel", .threads = 4});
  solver.solve(fig8_times());
  const ApproximationStats& stats = solver.last_stats();
  EXPECT_EQ(stats.iterations, 50945u);
  EXPECT_EQ(stats.iterations_saved, 2u);
  EXPECT_EQ(stats.active_states, 5038u);
  EXPECT_EQ(stats.active_nonzeros, 17214u);
}

TEST(ExactCounts, MassWindowSkipsRowsOnFig8Delta25) {
  // The window's payoff: a full sweep steps iterations * active_states
  // rows; the window stepped 71% of that when it was introduced.
  MarkovianApproximation solver(
      fig8_kibam(), {.delta = 25.0, .engine = "parallel", .threads = 4});
  solver.solve(fig8_times());
  const ApproximationStats& stats = solver.last_stats();
  const double full_sweep = static_cast<double>(stats.iterations) *
                            static_cast<double>(stats.active_states);
  EXPECT_GT(stats.rows_iterated, 0u);
  EXPECT_LE(static_cast<double>(stats.rows_iterated), 0.8 * full_sweep);
  EXPECT_GT(stats.dropped_mass, 0.0);
}

}  // namespace
}  // namespace kibamrm::core
