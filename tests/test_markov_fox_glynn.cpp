// Tests for the Fox-Glynn Poisson windows and Poisson helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "kibamrm/common/error.hpp"
#include "kibamrm/markov/fox_glynn.hpp"

namespace kibamrm::markov {
namespace {

TEST(PoissonPmf, SmallLambdaExactValues) {
  EXPECT_NEAR(poisson_pmf(1.0, 0), std::exp(-1.0), 1e-15);
  EXPECT_NEAR(poisson_pmf(1.0, 1), std::exp(-1.0), 1e-15);
  EXPECT_NEAR(poisson_pmf(2.0, 2), 2.0 * std::exp(-2.0), 1e-15);
}

TEST(PoissonPmf, ZeroLambdaDegenerate) {
  EXPECT_DOUBLE_EQ(poisson_pmf(0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(poisson_pmf(0.0, 3), 0.0);
}

TEST(PoissonPmf, LargeLambdaNoOverflow) {
  // Mode weight ~ 1/sqrt(2 pi lambda).
  const double lambda = 50000.0;
  const double w = poisson_pmf(lambda, 50000);
  EXPECT_NEAR(w, 1.0 / std::sqrt(2.0 * M_PI * lambda), 1e-6);
}

TEST(FoxGlynn, DegenerateAtZeroLambda) {
  const PoissonWindow window = fox_glynn(0.0, 1e-10);
  EXPECT_EQ(window.left, 0u);
  EXPECT_EQ(window.right, 0u);
  EXPECT_DOUBLE_EQ(window.weight(0), 1.0);
}

TEST(FoxGlynn, RejectsBadArguments) {
  EXPECT_THROW(fox_glynn(-1.0, 1e-10), InvalidArgument);
  EXPECT_THROW(fox_glynn(1.0, 0.0), InvalidArgument);
  EXPECT_THROW(fox_glynn(1.0, 1.5), InvalidArgument);
  // Lambdas whose upward walk from the mode could never stop.
  EXPECT_THROW(fox_glynn(std::numeric_limits<double>::infinity(), 1e-10),
               InvalidArgument);
  EXPECT_THROW(fox_glynn(1e300, 1e-10), InvalidArgument);
  EXPECT_THROW(fox_glynn(0x1p53, 1e-10), InvalidArgument);
  EXPECT_THROW(fox_glynn(std::nan(""), 1e-10), InvalidArgument);
}

class FoxGlynnLambdaTest : public ::testing::TestWithParam<double> {};

TEST_P(FoxGlynnLambdaTest, WeightsSumToOne) {
  const PoissonWindow window = fox_glynn(GetParam(), 1e-12);
  double total = 0.0;
  for (double w : window.weights) total += w;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST_P(FoxGlynnLambdaTest, WeightsMatchPmf) {
  const double lambda = GetParam();
  const PoissonWindow window = fox_glynn(lambda, 1e-12);
  // Compare a handful of in-window points against the log-space pmf.
  for (std::uint64_t n = window.left; n <= window.right;
       n += 1 + (window.right - window.left) / 7) {
    EXPECT_NEAR(window.weight(n), poisson_pmf(lambda, n),
                1e-9 * poisson_pmf(lambda, n) + 1e-300)
        << "lambda=" << lambda << " n=" << n;
  }
}

TEST_P(FoxGlynnLambdaTest, WindowCoversMode) {
  const double lambda = GetParam();
  const PoissonWindow window = fox_glynn(lambda, 1e-12);
  const auto mode = static_cast<std::uint64_t>(std::floor(lambda));
  EXPECT_LE(window.left, mode);
  EXPECT_GE(window.right, mode);
}

TEST_P(FoxGlynnLambdaTest, DroppedTailsAreSmall) {
  const double lambda = GetParam();
  const PoissonWindow window = fox_glynn(lambda, 1e-12);
  // The pmf just outside the window must be below the per-side budget.
  if (window.left > 0) {
    EXPECT_LT(poisson_pmf(lambda, window.left - 1), 1e-11);
  }
  EXPECT_LT(poisson_pmf(lambda, window.right + 1), 1e-11);
}

TEST_P(FoxGlynnLambdaTest, WindowWidthScalesLikeSqrtLambda) {
  const double lambda = GetParam();
  if (lambda < 10.0) return;
  const PoissonWindow window = fox_glynn(lambda, 1e-12);
  const double width = static_cast<double>(window.right - window.left);
  EXPECT_LT(width, 60.0 * std::sqrt(lambda) + 60.0);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, FoxGlynnLambdaTest,
                         ::testing::Values(0.01, 0.5, 1.0, 5.0, 25.0, 100.0,
                                           1000.0, 46000.0, 300000.0));

TEST(FoxGlynn, WeightOutsideWindowIsZero) {
  const PoissonWindow window = fox_glynn(100.0, 1e-12);
  EXPECT_DOUBLE_EQ(window.weight(window.left == 0 ? window.right + 1
                                                  : window.left - 1),
                   0.0);
  EXPECT_DOUBLE_EQ(window.weight(window.right + 1), 0.0);
}

TEST(PoissonTail, MatchesDirectSummation) {
  const double lambda = 7.5;
  for (std::uint64_t n : {0ULL, 1ULL, 5ULL, 8ULL, 15ULL}) {
    double direct = 0.0;
    for (std::uint64_t m = 0; m < n; ++m) direct += poisson_pmf(lambda, m);
    EXPECT_NEAR(poisson_tail(lambda, n), 1.0 - direct, 1e-12) << "n=" << n;
  }
}

TEST(PoissonTail, EdgeCases) {
  EXPECT_DOUBLE_EQ(poisson_tail(5.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(poisson_tail(0.0, 1), 0.0);
  // Far tails saturate.
  EXPECT_NEAR(poisson_tail(10.0, 1), 1.0, 1e-4);
  EXPECT_NEAR(poisson_tail(10.0, 100), 0.0, 1e-12);
}

TEST(PoissonTail, MedianOfLargeLambdaNearHalf) {
  // Pr{N >= lambda} ~ 1/2 for large lambda.
  EXPECT_NEAR(poisson_tail(10000.0, 10000), 0.5, 0.01);
}

TEST(UniformizationPlan, CachesIdenticalLookups) {
  UniformizationPlan plan;
  const auto first = plan.window(120.0, 1e-10);
  const auto again = plan.window(120.0, 1e-10);
  EXPECT_EQ(first.get(), again.get());  // same cached entry, no recompute
  EXPECT_EQ(plan.windows_computed(), 1u);
  EXPECT_EQ(plan.windows_reused(), 1u);
  EXPECT_EQ(plan.cached_windows(), 1u);
}

TEST(UniformizationPlan, HeldWindowSurvivesEviction) {
  // Regression: window() used to return a reference into the LRU list; a
  // caller holding the window across `capacity` distinct lookups read
  // freed memory once its entry was evicted (ASan: heap-use-after-free).
  // The shared_ptr pins the window through any amount of cache churn.
  UniformizationPlan plan(2);
  const auto held = plan.window(40.0, 1e-10);
  const PoissonWindow expected = fox_glynn(40.0, 1e-10);
  // Fill the cache far past capacity with distinct lambdas.
  for (double lambda = 100.0; lambda < 2000.0; lambda += 100.0) {
    plan.window(lambda, 1e-10);
  }
  EXPECT_EQ(plan.cached_windows(), 2u);  // 40.0 is long gone from the LRU
  ASSERT_EQ(held->weights.size(), expected.weights.size());
  EXPECT_EQ(held->left, expected.left);
  EXPECT_EQ(held->right, expected.right);
  EXPECT_EQ(held->weights, expected.weights);  // reads every held weight
}

TEST(UniformizationPlan, UlpPerturbedLambdaHitsTheCache) {
  // uniform_grid() increments differ in the last few ulps; those must not
  // recompute the window.
  UniformizationPlan plan;
  const double lambda = 1234.5;
  plan.window(lambda, 1e-10);
  plan.window(std::nextafter(lambda, 2000.0), 1e-10);
  plan.window(lambda * (1.0 + 1e-12), 1e-10);
  EXPECT_EQ(plan.windows_computed(), 1u);
  EXPECT_EQ(plan.windows_reused(), 2u);
}

TEST(UniformizationPlan, DistinctKeysComputeSeparately) {
  UniformizationPlan plan;
  plan.window(10.0, 1e-10);
  plan.window(20.0, 1e-10);   // different lambda
  plan.window(10.0, 1e-12);   // different epsilon
  EXPECT_EQ(plan.windows_computed(), 3u);
  EXPECT_EQ(plan.windows_reused(), 0u);
  EXPECT_EQ(plan.cached_windows(), 3u);
}

TEST(UniformizationPlan, EvictsLeastRecentlyUsedAtCapacity) {
  UniformizationPlan plan(2);
  plan.window(1.0, 1e-10);
  plan.window(2.0, 1e-10);
  plan.window(1.0, 1e-10);  // refresh 1.0: now MRU
  plan.window(3.0, 1e-10);  // evicts 2.0
  EXPECT_EQ(plan.cached_windows(), 2u);
  plan.window(2.0, 1e-10);  // recomputed
  EXPECT_EQ(plan.windows_computed(), 4u);
}

TEST(UniformizationPlan, CachedWindowMatchesDirectComputation) {
  UniformizationPlan plan;
  const auto cached = plan.window(500.0, 1e-11);
  const PoissonWindow direct = fox_glynn(500.0, 1e-11);
  EXPECT_EQ(cached->left, direct.left);
  EXPECT_EQ(cached->right, direct.right);
  EXPECT_EQ(cached->weights, direct.weights);
}

TEST(PoissonTail, PerturbedLambdaIsNotServedFromTheCache) {
  // The tail cache matches lambda *exactly*: the transient solvers'
  // 1e-9-relative grid slack would hand a perturbed lambda the cached
  // neighbour's tail, wrong by ~pmf(mode) * dlambda ~ 2e-7 here -- nine
  // decades above the advertised accuracy.
  const double lambda = 1e6;
  const double a = poisson_tail(lambda, 1000000);
  const double b = poisson_tail(lambda * (1.0 + 5e-10), 1000000);
  EXPECT_NE(a, b);
  EXPECT_NEAR(a, b, 1e-6);  // ...while the true tails are this close
}

TEST(PoissonTail, HonoursCallerEpsilon) {
  // A loose window is allowed to be off by ~epsilon, no more; the default
  // stays at the historical 1e-16.
  const double tight = poisson_tail(50.0, 55);
  const double loose = poisson_tail(50.0, 55, 1e-4);
  EXPECT_NEAR(loose, tight, 1e-4);
  EXPECT_NE(loose, tight);  // the window genuinely changed
  EXPECT_DOUBLE_EQ(poisson_tail(50.0, 55, 1e-16), tight);
}

}  // namespace
}  // namespace kibamrm::markov
