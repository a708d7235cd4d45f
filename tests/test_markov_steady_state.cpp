// Tests for the Gauss-Seidel steady-state solver.
#include <gtest/gtest.h>

#include <vector>

#include "kibamrm/common/error.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/linalg/vector_ops.hpp"
#include "kibamrm/markov/steady_state.hpp"

namespace kibamrm::markov {
namespace {

TEST(SteadyState, TwoStateClosedForm) {
  const Ctmc chain = ctmc_from_rates({{0.0, 2.0}, {6.0, 0.0}});
  const auto pi = steady_state(chain);
  EXPECT_NEAR(pi[0], 0.75, 1e-10);
  EXPECT_NEAR(pi[1], 0.25, 1e-10);
}

TEST(SteadyState, BirthDeathDetailedBalance) {
  // Birth rate 1, death rate 2 over 5 states: pi_i ~ (1/2)^i.
  std::vector<std::vector<double>> rates(5, std::vector<double>(5, 0.0));
  for (int i = 0; i < 4; ++i) {
    rates[i][i + 1] = 1.0;
    rates[i + 1][i] = 2.0;
  }
  const auto pi = steady_state(ctmc_from_rates(rates));
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(pi[i + 1] / pi[i], 0.5, 1e-9) << "level " << i;
  }
  EXPECT_NEAR(linalg::sum(pi), 1.0, 1e-12);
}

TEST(SteadyState, MatchesLongRunTransient) {
  const Ctmc chain = ctmc_from_rates({{0.0, 1.2, 0.3},
                                      {0.4, 0.0, 2.0},
                                      {1.5, 0.7, 0.0}});
  const auto pi = steady_state(chain);
  const auto transient = engine::make_backend("uniformization")
                             ->solve(chain, {1.0, 0.0, 0.0}, {200.0})
                             .front();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(pi[i], transient[i], 1e-8) << "state " << i;
  }
}

TEST(SteadyState, StationaryUnderGenerator) {
  // pi Q = 0: left-multiplying the generator by pi gives ~0.
  const Ctmc chain = ctmc_from_rates({{0.0, 5.0, 0.0, 1.0},
                                      {1.0, 0.0, 4.0, 0.0},
                                      {0.0, 2.0, 0.0, 3.0},
                                      {2.0, 0.0, 1.0, 0.0}});
  const auto pi = steady_state(chain);
  std::vector<double> residual;
  chain.generator().left_multiply(pi, residual);
  EXPECT_LT(linalg::linf_norm(residual), 1e-9);
}

TEST(SteadyState, AbsorbingChainRejected) {
  const Ctmc chain = ctmc_from_rates({{0.0, 1.0}, {0.0, 0.0}});
  EXPECT_THROW(steady_state(chain), NumericalError);
}

TEST(SteadyState, StiffRatesConverge) {
  // Rates spanning 5 orders of magnitude (like the burst model's 182/h
  // against 1/h).
  const Ctmc chain = ctmc_from_rates({{0.0, 1e-2, 0.0},
                                      {0.0, 0.0, 1e3},
                                      {5.0, 0.0, 0.0}});
  const auto pi = steady_state(chain);
  EXPECT_NEAR(linalg::sum(pi), 1.0, 1e-12);
  // Flow balance across the cycle: pi_0 * 1e-2 = pi_1 * 1e3 = pi_2 * 5.
  EXPECT_NEAR(pi[0] * 1e-2, pi[1] * 1e3, 1e-10);
  EXPECT_NEAR(pi[1] * 1e3, pi[2] * 5.0, 1e-10);
}

}  // namespace
}  // namespace kibamrm::markov
