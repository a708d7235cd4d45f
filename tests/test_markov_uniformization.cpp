// Tests for the uniformisation transient solver, cross-checked against
// closed forms and the independent dense matrix exponential.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "kibamrm/engine/gather_executor.hpp"
#include "kibamrm/engine/plan_cache.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/linalg/csr_matrix.hpp"
#include "kibamrm/linalg/expm.hpp"
#include "kibamrm/linalg/vector_ops.hpp"
#include "kibamrm/markov/ctmc.hpp"
#include "kibamrm/markov/fox_glynn.hpp"
#include "kibamrm/markov/uniformization.hpp"

namespace kibamrm::markov {
namespace {

Ctmc two_state(double a, double b) {
  return ctmc_from_rates({{0.0, a}, {b, 0.0}});
}

// Closed form for the two-state chain started in state 0:
// pi_0(t) = b/(a+b) + a/(a+b) e^{-(a+b)t}.
double two_state_p0(double a, double b, double t) {
  return b / (a + b) + a / (a + b) * std::exp(-(a + b) * t);
}

const double kEpsilon = engine::BackendOptions{}.epsilon;

std::unique_ptr<engine::TransientBackend> uniformization(
    const engine::BackendOptions& options = {}) {
  return engine::make_backend("uniformization", options);
}

// pi(t) from a one-shot solve.
std::vector<double> transient_at(const Ctmc& chain,
                                 const std::vector<double>& initial,
                                 double t) {
  return uniformization()->solve(chain, initial, {t}).front();
}

TEST(Uniformization, TwoStateMatchesClosedForm) {
  const double a = 2.0;
  const double b = 0.5;
  const Ctmc chain = two_state(a, b);
  // One solve for the whole grid: repeated one-shot solves would rebuild
  // the uniformised matrix per time point.
  const std::vector<double> times = {0.0, 0.1, 0.5, 1.0, 5.0, 50.0};
  const auto curves = uniformization()->solve(chain, {1.0, 0.0}, times);
  for (std::size_t k = 0; k < times.size(); ++k) {
    EXPECT_NEAR(curves[k][0], two_state_p0(a, b, times[k]), 1e-9)
        << "t=" << times[k];
    EXPECT_NEAR(curves[k][0] + curves[k][1], 1.0, 1e-12);
  }
}

TEST(Uniformization, MatchesDenseMatrixExponential) {
  // 4-state random-ish generator; compare against alpha * expm(Q t).
  const Ctmc chain = ctmc_from_rates({{0.0, 1.2, 0.3, 0.0},
                                      {0.4, 0.0, 2.0, 0.1},
                                      {0.0, 0.7, 0.0, 0.9},
                                      {1.5, 0.0, 0.2, 0.0}});
  const std::vector<double> alpha = {0.25, 0.25, 0.25, 0.25};
  const double t = 1.7;
  const auto pi = transient_at(chain, alpha, t);
  const linalg::DenseReal e = linalg::expm(chain.dense_generator().scaled(t));
  const std::vector<double> expected = e.left_multiply(alpha);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(pi[i], expected[i], 1e-10) << "state " << i;
  }
}

TEST(Uniformization, TimeZeroReturnsInitial) {
  const Ctmc chain = two_state(1.0, 1.0);
  const auto pi = transient_at(chain, {0.3, 0.7}, 0.0);
  EXPECT_DOUBLE_EQ(pi[0], 0.3);
  EXPECT_DOUBLE_EQ(pi[1], 0.7);
}

TEST(Uniformization, IncrementalMultiPointMatchesOneShot) {
  const Ctmc chain = two_state(3.0, 0.7);
  const std::vector<double> times = {0.25, 0.5, 1.0, 2.0, 4.0};
  const auto curves = uniformization()->solve(chain, {1.0, 0.0}, times);
  for (std::size_t k = 0; k < times.size(); ++k) {
    const auto direct = transient_at(chain, {1.0, 0.0}, times[k]);
    EXPECT_NEAR(curves[k][0], direct[0], 1e-9) << "t=" << times[k];
  }
}

TEST(Uniformization, RepeatedTimePointsAllowed) {
  const Ctmc chain = two_state(1.0, 2.0);
  const auto curves =
      uniformization()->solve(chain, {1.0, 0.0}, {1.0, 1.0, 1.0});
  EXPECT_NEAR(curves[0][0], curves[2][0], 1e-15);
}

TEST(Uniformization, AbsorbingChainAccumulatesMass) {
  // 0 -> 1 at rate 2, state 1 absorbing: pi_1(t) = 1 - e^{-2t}.  One
  // solve over the grid instead of a one-shot rebuild per time point.
  const Ctmc chain = ctmc_from_rates({{0.0, 2.0}, {0.0, 0.0}});
  const std::vector<double> times = {0.1, 1.0, 3.0};
  const auto curves = uniformization()->solve(chain, {1.0, 0.0}, times);
  for (std::size_t k = 0; k < times.size(); ++k) {
    EXPECT_NEAR(curves[k][1], 1.0 - std::exp(-2.0 * times[k]), 1e-10);
  }
}

TEST(Uniformization, AllAbsorbingChainIsConstant) {
  const Ctmc chain = ctmc_from_rates({{0.0, 0.0}, {0.0, 0.0}});
  const auto pi = transient_at(chain, {0.4, 0.6}, 10.0);
  EXPECT_NEAR(pi[0], 0.4, 1e-12);
  EXPECT_NEAR(pi[1], 0.6, 1e-12);
}

TEST(Uniformization, ErlangAbsorptionProbability) {
  // Chain 0->1->2->absorbing(3), all rate r: absorption by t is the
  // Erlang-3 CDF.
  const double r = 4.0;
  const Ctmc chain = ctmc_from_rates({{0.0, r, 0.0, 0.0},
                                      {0.0, 0.0, r, 0.0},
                                      {0.0, 0.0, 0.0, r},
                                      {0.0, 0.0, 0.0, 0.0}});
  const double t = 0.8;
  const auto pi = transient_at(chain, {1.0, 0.0, 0.0, 0.0}, t);
  const double x = r * t;
  const double erlang3 =
      1.0 - std::exp(-x) * (1.0 + x + x * x / 2.0);
  EXPECT_NEAR(pi[3], erlang3, 1e-10);
}

TEST(Uniformization, LongHorizonReachesSteadyState) {
  const Ctmc chain = two_state(2.0, 6.0);
  const auto pi = transient_at(chain, {0.0, 1.0}, 500.0);
  EXPECT_NEAR(pi[0], 0.75, 1e-9);
  EXPECT_NEAR(pi[1], 0.25, 1e-9);
}

TEST(Uniformization, StatsReportIterationsAndRate) {
  const Ctmc chain = two_state(1.0, 1.0);
  const auto solver = uniformization();
  solver->solve(chain, {1.0, 0.0}, {10.0});
  const TransientStats& stats = solver->last_stats();
  EXPECT_GT(stats.iterations, 5u);   // ~ q t = 1.02 * 10 plus window
  EXPECT_LT(stats.iterations, 200u);
  // Auto rate is 1.02 * max_exit_rate = 1.02 * 1.0.
  EXPECT_NEAR(stats.uniformization_rate, 1.02, 0.01);
  EXPECT_EQ(stats.time_points, 1u);
}

TEST(Uniformization, FusedMatchesDenseExpmOracle) {
  // The fused compacted gather loop, incremental over four increments
  // (detection firing on the converged tail), against the independent
  // dense matrix exponential at every point.
  const Ctmc chain = ctmc_from_rates({{0.0, 1.2, 0.3, 0.0},
                                      {0.4, 0.0, 2.0, 0.1},
                                      {0.0, 0.7, 0.0, 0.9},
                                      {1.5, 0.0, 0.2, 0.0}});
  const std::vector<double> initial = {0.25, 0.25, 0.25, 0.25};
  const std::vector<double> times = {0.5, 1.7, 4.0, 12.0};
  const auto curves = uniformization()->solve(chain, initial, times);
  for (std::size_t k = 0; k < times.size(); ++k) {
    const std::vector<double> expected =
        linalg::expm(chain.dense_generator().scaled(times[k]))
            .left_multiply(initial);
    EXPECT_LT(linalg::linf_distance(curves[k], expected), 1e-10)
        << "t=" << times[k];
  }
}

TEST(Uniformization, SteadyStateDetectionSkipsConvergedTail) {
  // two_state(2, 6) relaxes fast (second DTMC eigenvalue ~0.02), so a
  // long-horizon window is almost entirely converged tail.
  const Ctmc chain = two_state(2.0, 6.0);
  const auto solver = uniformization();
  const auto pi = solver->solve(chain, {0.0, 1.0}, {500.0}).front();
  EXPECT_NEAR(pi[0], 0.75, 1e-9);
  EXPECT_NEAR(pi[1], 0.25, 1e-9);
  const TransientStats& stats = solver->last_stats();
  EXPECT_GT(stats.iterations_saved, stats.iterations)
      << "most of the ~4000-term window should be short-circuited";
  EXPECT_EQ(stats.steady_state_hits, 1u);
  // iterations + iterations_saved always equals the full window term
  // count, so the accounting is closed.
  const auto no_detect = uniformization({.steady_state_detection = false});
  no_detect->solve(chain, {0.0, 1.0}, {500.0});
  EXPECT_EQ(stats.iterations + stats.iterations_saved,
            no_detect->last_stats().iterations);
}

TEST(Uniformization, DetectionNeverFiresWhileTransient) {
  // Short horizon on a slowly mixing chain: the distribution is still
  // moving, detection must not trigger.
  const Ctmc chain = two_state(1.0, 1.0);
  const auto solver = uniformization();
  solver->solve(chain, {1.0, 0.0}, {1.0});
  EXPECT_EQ(solver->last_stats().steady_state_hits, 0u);
  EXPECT_EQ(solver->last_stats().iterations_saved, 0u);
}

TEST(Uniformization, DetectionOnOffAgreeWithinBudget) {
  const Ctmc chain = ctmc_from_rates({{0.0, 5.0, 0.0},
                                      {1.0, 0.0, 4.0},
                                      {0.0, 2.0, 0.0}});
  std::vector<double> times;
  for (int i = 1; i <= 40; ++i) times.push_back(2.5 * i);
  const auto on = uniformization();
  const auto off = uniformization({.steady_state_detection = false});
  const auto a = on->solve(chain, {1.0, 0.0, 0.0}, times);
  const auto b = off->solve(chain, {1.0, 0.0, 0.0}, times);
  const double budget = 10.0 * 1e-10;  // 10 * default epsilon
  for (std::size_t k = 0; k < times.size(); ++k) {
    EXPECT_LT(linalg::linf_distance(a[k], b[k]), budget) << "t=" << times[k];
  }
  EXPECT_GT(on->last_stats().iterations_saved, 0u);
}

TEST(Uniformization, UniformGridComputesExactlyOneWindow) {
  // 1000-point uniform grid: every increment shares one lambda, so the
  // plan cache must compute a single Fox-Glynn window for the whole curve.
  const Ctmc chain = two_state(1.0, 1.0);
  const auto solver = uniformization();
  std::vector<double> times(1000);
  for (std::size_t i = 0; i < times.size(); ++i) {
    times[i] = 14.0 * static_cast<double>(i + 1);
  }
  solver->solve(chain, {1.0, 0.0}, times);
  EXPECT_EQ(solver->last_stats().windows_computed, 1u);
  EXPECT_EQ(solver->last_stats().windows_reused, 999u);
}

TEST(Uniformization, CompactsToReachableClosure) {
  // State 2 is unreachable from state 0; the fused loop must iterate only
  // the two reachable states yet still report full-size distributions.
  const Ctmc chain = ctmc_from_rates({{0.0, 1.0, 0.0},
                                      {2.0, 0.0, 0.0},
                                      {1.0, 1.0, 0.0}});
  const auto solver = uniformization();
  const auto pi = solver->solve(chain, {1.0, 0.0, 0.0}, {3.0}).front();
  ASSERT_EQ(pi.size(), 3u);
  EXPECT_EQ(solver->last_stats().active_states, 2u);
  EXPECT_EQ(pi[2], 0.0);
  EXPECT_NEAR(pi[0] + pi[1], 1.0, 1e-12);
}

TEST(Uniformization, ReusableSolverHandlesGrowingSupport) {
  // A second initial outside the first one's closure must transparently
  // rebuild the compacted machinery (and keep the earlier initials valid).
  const Ctmc chain = ctmc_from_rates({{0.0, 1.0, 0.0},
                                      {2.0, 0.0, 0.0},
                                      {1.0, 1.0, 0.0}});
  const auto solver = uniformization();
  const auto first = solver->solve(chain, {1.0, 0.0, 0.0}, {2.0}).front();
  EXPECT_EQ(solver->last_stats().active_states, 2u);
  const auto second = solver->solve(chain, {0.0, 0.0, 1.0}, {2.0}).front();
  EXPECT_EQ(solver->last_stats().active_states, 3u);
  const auto again = solver->solve(chain, {1.0, 0.0, 0.0}, {2.0}).front();
  // Cross-check both against one-shot solves.
  const auto ref_first = transient_at(chain, {1.0, 0.0, 0.0}, 2.0);
  const auto ref_second = transient_at(chain, {0.0, 0.0, 1.0}, 2.0);
  EXPECT_LT(linalg::linf_distance(first, ref_first), 1e-12);
  EXPECT_LT(linalg::linf_distance(second, ref_second), 1e-12);
  EXPECT_LT(linalg::linf_distance(again, ref_first), 1e-12);
}

TEST(Uniformization, ProbabilityVectorStaysNormalised) {
  // Long run over many increments: renormalisation keeps the sum at 1.
  const Ctmc chain = ctmc_from_rates({{0.0, 5.0, 0.0},
                                      {1.0, 0.0, 4.0},
                                      {0.0, 2.0, 0.0}});
  std::vector<double> times;
  for (int i = 1; i <= 200; ++i) times.push_back(0.5 * i);
  const auto curves = uniformization()->solve(chain, {1.0, 0.0, 0.0}, times);
  for (const auto& pi : curves) {
    EXPECT_NEAR(linalg::sum(pi), 1.0, 1e-12);
  }
}

// Step executor with a scripted delta sequence (1.0 once it runs out) that
// records what the driver asks of it.
class ScriptedExecutor final : public StepExecutor {
 public:
  explicit ScriptedExecutor(std::vector<double> deltas)
      : deltas_(std::move(deltas)) {}

  void load(const std::vector<double>&, double, double threshold) override {
    ++loads;
    thresholds.push_back(threshold);
  }
  double step(double) override {
    const double delta = steps < deltas_.size() ? deltas_[steps] : 1.0;
    ++steps;
    return delta;
  }
  void fold(double tail) override {
    ++folds;
    residual = tail;
  }
  void read_back(std::vector<double>&) override {}  // pi(t) stays initial
  IncrementWork increment_work() const override { return {}; }

  std::size_t loads = 0;
  std::vector<double> thresholds;
  std::size_t steps = 0;
  std::size_t folds = 0;
  double residual = 0.0;

 private:
  std::vector<double> deltas_;
};

// One increment of lambda = 50 over two loop rows through the driver;
// returns the window it must have used.
PoissonWindow run_scripted(ScriptedExecutor& executor, TransientStats& stats) {
  UniformizationDriver driver(kEpsilon, true);
  std::vector<double> current = {1.0, 0.0};
  driver.advance(executor, 1.0, current, 50.0, stats);
  return fox_glynn(50.0, kEpsilon);
}

TEST(UniformizationDriver, SingleCalmStepDoesNotStop) {
  // Every other step lies inside the budget, never two in a row.
  std::vector<double> deltas(1000);
  for (std::size_t i = 0; i < deltas.size(); ++i) deltas[i] = i % 2;
  ScriptedExecutor executor(deltas);
  TransientStats stats;
  const PoissonWindow window = run_scripted(executor, stats);
  EXPECT_EQ(executor.loads, 1u);
  EXPECT_EQ(executor.folds, 0u);
  EXPECT_EQ(executor.steps, window.right);
  EXPECT_EQ(stats.iterations, window.right);
  EXPECT_EQ(stats.iterations_saved, 0u);
  EXPECT_EQ(stats.steady_state_hits, 0u);
}

TEST(UniformizationDriver, TwoCalmStepsFoldTheResidualTail) {
  // Steps 3 and 4 lie inside the budget: the driver stops after step 4
  // and folds the remaining Poisson mass, summed in ascending order.
  ScriptedExecutor executor({1.0, 1.0, 0.0, 0.0});
  TransientStats stats;
  const PoissonWindow window = run_scripted(executor, stats);
  double tail = 0.0;
  for (std::uint64_t m = 5; m <= window.right; ++m) tail += window.weight(m);
  EXPECT_EQ(executor.steps, 4u);
  EXPECT_EQ(executor.folds, 1u);
  EXPECT_EQ(executor.residual, tail);
  EXPECT_EQ(stats.iterations, 4u);
  EXPECT_EQ(stats.iterations + stats.iterations_saved, window.right);
  EXPECT_EQ(stats.steady_state_hits, 1u);
  EXPECT_EQ(stats.windows_computed, 1u);
}

TEST(UniformizationDriver, DropThresholdFollowsTheWindow) {
  // theta = epsilon / (100 * window.right * loop rows), once per
  // increment, through the one shared function.
  ScriptedExecutor executor({});
  TransientStats stats;
  const PoissonWindow window = run_scripted(executor, stats);
  const double epsilon = kEpsilon;
  ASSERT_EQ(executor.thresholds.size(), 1u);
  EXPECT_EQ(executor.thresholds[0],
            epsilon / (100.0 * static_cast<double>(window.right) * 2.0));
  EXPECT_EQ(executor.thresholds[0], drop_threshold(epsilon, window.right, 2));
  EXPECT_EQ(drop_threshold(epsilon, 0, 2), 0.0);
  EXPECT_EQ(drop_threshold(epsilon, window.right, 0), 0.0);
}

// Forwards to a real executor and records each increment's work.
class RecordingExecutor final : public StepExecutor {
 public:
  explicit RecordingExecutor(StepExecutor& inner) : inner_(inner) {}

  void load(const std::vector<double>& current, double weight0,
            double threshold) override {
    inner_.load(current, weight0, threshold);
    thresholds.push_back(threshold);
  }
  double step(double weight) override { return inner_.step(weight); }
  void fold(double residual) override { inner_.fold(residual); }
  void read_back(std::vector<double>& current) override {
    inner_.read_back(current);
    increments.push_back(inner_.increment_work());
  }
  IncrementWork increment_work() const override {
    return inner_.increment_work();
  }

  std::vector<double> thresholds;
  std::vector<IncrementWork> increments;

 private:
  StepExecutor& inner_;
};

TEST(UniformizationDriver, EachIncrementDropsLessThanAHundredthOfEpsilon) {
  // A pure-drift chain of 16 chunks: the mass moves right one state per
  // unit time, so the chunks it leaves behind decay below the threshold
  // and drop with mass still in them.
  const std::size_t n = 16 * kDropChunkRows;
  std::vector<std::uint32_t> row_ptr = {0};
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    col_idx.insert(col_idx.end(), {static_cast<std::uint32_t>(i),
                                   static_cast<std::uint32_t>(i + 1)});
    values.insert(values.end(), {-1.0, 1.0});
    row_ptr.push_back(static_cast<std::uint32_t>(col_idx.size()));
  }
  row_ptr.push_back(row_ptr.back());  // the last state absorbs
  const Ctmc chain(linalg::CsrMatrix::from_rows(
      n, n, std::move(row_ptr), std::move(col_idx), std::move(values)));
  std::vector<double> initial(n, 0.0);
  initial[0] = 1.0;
  std::vector<std::uint32_t> reachable(n);
  for (std::size_t i = 0; i < n; ++i) {
    reachable[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<double> times;
  for (int k = 1; k <= 24; ++k) times.push_back(250.0 * k);

  const double rate = UniformizationDriver::select_rate(chain);
  engine::GatherExecutor gather(nullptr);
  gather.bind(engine::build_cached_gather_plan(chain.generator(), rate,
                                               std::vector<std::uint32_t>{0}));
  RecordingExecutor executor(gather);
  UniformizationDriver driver(kEpsilon, true);
  engine::BackendStats stats;
  engine::MarchBuffers buffers;
  const auto curves = engine::march(
      chain, initial, times, nullptr, {}, buffers, stats,
      [&] { return std::span<const std::uint32_t>(reachable); },
      [&](std::vector<double>& current, double dt) {
        driver.advance(executor, rate, current, dt, stats);
      });

  ASSERT_EQ(executor.increments.size(), times.size());
  double total = 0.0;
  for (std::size_t k = 0; k < executor.increments.size(); ++k) {
    EXPECT_GT(executor.thresholds[k], 0.0);
    EXPECT_LE(executor.increments[k].dropped_mass, kEpsilon / 100.0)
        << "increment " << k;
    total += executor.increments[k].dropped_mass;
  }
  EXPECT_GT(total, 0.0) << "the chain must drop mass for the test to bite";
  EXPECT_EQ(stats.dropped_mass, total);
  EXPECT_LT(stats.rows_iterated, stats.iterations * n);
  // The drop is charged to the curve: renormalised, it still sums to one.
  EXPECT_NEAR(linalg::sum(curves.back()), 1.0, 1e-12);
}

TEST(UniformizationDriver, AChunkHoldingANaNIsNeverDropped) {
  // Three chunks, the last one partial, every entry below the threshold;
  // the NaN keeps chunk 1 whole so NumericalError paths downstream still
  // see it.
  const double threshold = 1e-20;
  const std::size_t rows = 2 * kDropChunkRows + 100;
  std::vector<double> v(rows, 1e-30);
  v[kDropChunkRows + 7] = std::nan("");
  std::vector<double> dropped(3, 0.0);
  std::vector<std::uint8_t> live(3, 9);
  drop_cold_chunks(v.data(), rows, 0, 3, threshold, dropped.data(),
                   live.data());
  EXPECT_EQ(live, (std::vector<std::uint8_t>{0, 1, 0}));
  EXPECT_GT(dropped[0], 0.0);
  EXPECT_EQ(dropped[1], 0.0);
  EXPECT_GT(dropped[2], 0.0);
  EXPECT_LT(dropped[2], dropped[0]);  // 100 rows against 512
  for (std::size_t i = 0; i < rows; ++i) {
    const bool kept = i / kDropChunkRows == 1;
    if (i == kDropChunkRows + 7) {
      EXPECT_TRUE(std::isnan(v[i]));
    } else {
      EXPECT_EQ(v[i], kept ? 1e-30 : 0.0) << "row " << i;
    }
  }
  // An entry at the threshold keeps its chunk, as does one past it.
  std::vector<double> edge(kDropChunkRows, 0.0);
  edge[kDropChunkRows - 1] = threshold;
  std::uint8_t edge_live = 0;
  double edge_dropped = 0.0;
  drop_cold_chunks(edge.data(), edge.size(), 0, 1, threshold, &edge_dropped,
                   &edge_live);
  EXPECT_EQ(edge_live, 1);
  EXPECT_EQ(edge[kDropChunkRows - 1], threshold);
}

}  // namespace
}  // namespace kibamrm::markov
