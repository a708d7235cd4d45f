// Tests for the level grid and the expanded CTMC Q* (Sec. 5.1-5.2).
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "kibamrm/common/error.hpp"
#include "kibamrm/core/expanded_ctmc.hpp"
#include "kibamrm/linalg/permutation.hpp"
#include "kibamrm/workload/onoff_model.hpp"
#include "kibamrm/workload/simple_model.hpp"

namespace kibamrm::core {
namespace {

KibamRmModel onoff_c1() {
  return KibamRmModel(
      workload::make_onoff_model({.frequency = 1.0, .erlang_k = 1,
                                  .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 1.0, .flow_constant = 0.0});
}

KibamRmModel onoff_kibam() {
  return KibamRmModel(
      workload::make_onoff_model({.frequency = 1.0, .erlang_k = 1,
                                  .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 0.625,
       .flow_constant = 4.5e-5});
}

TEST(LevelGrid, PaperStateCount2882) {
  // Sec. 6.1: "the CTMC for Delta = 5 has 2882 states".
  const KibamRmModel model = onoff_c1();
  const LevelGrid grid(model, 5.0);
  EXPECT_EQ(grid.available_levels(), 1440u);
  EXPECT_EQ(grid.bound_levels(), 0u);
  EXPECT_EQ(grid.state_count(), 2882u);
}

TEST(LevelGrid, TwoWellDimensions) {
  // c = 0.625: u1 = 4500, u2 = 2700; Delta = 5 -> 901 x 541 levels.
  const KibamRmModel model = onoff_kibam();
  const LevelGrid grid(model, 5.0);
  EXPECT_EQ(grid.available_levels(), 900u);
  EXPECT_EQ(grid.bound_levels(), 540u);
  EXPECT_EQ(grid.state_count(), 901u * 541u * 2u);
}

TEST(LevelGrid, InitialLevelsUseIntervalSemantics) {
  // a1 = 4500 lies in (4495, 4500] -> level 899 at Delta = 5.
  const LevelGrid grid(onoff_kibam(), 5.0);
  EXPECT_EQ(grid.initial_available_level(), 899u);
  EXPECT_EQ(grid.initial_bound_level(), 539u);
}

TEST(LevelGrid, IndexIsBijective) {
  const LevelGrid grid(onoff_kibam(), 100.0);
  std::vector<bool> seen(grid.state_count(), false);
  for (std::size_t j1 = 0; j1 <= grid.available_levels(); ++j1) {
    for (std::size_t j2 = 0; j2 <= grid.bound_levels(); ++j2) {
      for (std::size_t i = 0; i < grid.workload_states(); ++i) {
        const std::size_t idx = grid.index(i, j1, j2);
        ASSERT_LT(idx, grid.state_count());
        ASSERT_FALSE(seen[idx]);
        seen[idx] = true;
        // coordinates() is index()'s inverse.
        const auto [ci, cj1, cj2] = grid.coordinates(idx);
        ASSERT_EQ(ci, i);
        ASSERT_EQ(cj1, j1);
        ASSERT_EQ(cj2, j2);
      }
    }
  }
}

TEST(LevelGrid, NonDivisibleDeltaRejected) {
  EXPECT_THROW(LevelGrid(onoff_c1(), 7.0), InvalidArgument);
  EXPECT_THROW(LevelGrid(onoff_c1(), -5.0), InvalidArgument);
}

// Every ExpandedChain property below holds under each state ordering;
// generator entries and `initial` are addressed through state(), so a
// test cannot silently read the wrong states when the numbering changes.
class ExpandedChainOrdering : public ::testing::TestWithParam<StateOrdering> {
 protected:
  ExpandedChain build(double delta) const {
    return build_expanded_chain(onoff_kibam(), delta, GetParam());
  }
};

INSTANTIATE_TEST_SUITE_P(
    Orderings, ExpandedChainOrdering,
    ::testing::Values(StateOrdering::kNone, StateOrdering::kLevel),
    [](const ::testing::TestParamInfo<StateOrdering>& info) {
      return std::string(state_ordering_name(info.param));
    });

TEST_P(ExpandedChainOrdering, GeneratorIsValidatedCtmc) {
  // Construction through markov::Ctmc already asserts row sums ~ 0 and
  // non-negative rates; here we check the structural expectations.
  const ExpandedChain expanded = build(100.0);
  EXPECT_EQ(expanded.chain.state_count(), expanded.grid.state_count());
  EXPECT_GT(expanded.chain.generator().nonzeros(), 0u);
  EXPECT_EQ(expanded.ordering, GetParam());
}

TEST_P(ExpandedChainOrdering, EmptyLayerIsAbsorbing) {
  const ExpandedChain expanded = build(100.0);
  const LevelGrid& grid = expanded.grid;
  for (std::size_t j2 = 0; j2 <= grid.bound_levels(); ++j2) {
    for (std::size_t i = 0; i < grid.workload_states(); ++i) {
      EXPECT_TRUE(expanded.chain.is_absorbing(expanded.state(i, 0, j2)));
    }
  }
  // ... and only that layer: a full state keeps its exits.
  EXPECT_FALSE(expanded.chain.is_absorbing(expanded.state(0, 1, 0)));
}

TEST_P(ExpandedChainOrdering, ConsumptionRateIsCurrentOverDelta) {
  const double delta = 100.0;
  const ExpandedChain expanded = build(delta);
  const auto& q = expanded.chain.generator();
  // on-state (0) consumes 0.96 A -> rate 0.96/100 between (0,j1,j2) and
  // (0,j1-1,j2).
  const std::size_t j1 = 10;
  const std::size_t j2 = 5;
  EXPECT_NEAR(q.at(expanded.state(0, j1, j2), expanded.state(0, j1 - 1, j2)),
              0.96 / delta, 1e-15);
  // off-state (1) consumes nothing.
  EXPECT_DOUBLE_EQ(
      q.at(expanded.state(1, j1, j2), expanded.state(1, j1 - 1, j2)), 0.0);
}

TEST_P(ExpandedChainOrdering, WorkloadRatesCopiedAtAllLevels) {
  const ExpandedChain expanded = build(100.0);
  const auto& q = expanded.chain.generator();
  for (std::size_t j1 : {std::size_t{1}, expanded.grid.available_levels()}) {
    EXPECT_DOUBLE_EQ(
        q.at(expanded.state(0, j1, 3), expanded.state(1, j1, 3)),
        2.0);  // on -> off at lambda = 2 f K = 2
  }
}

TEST_P(ExpandedChainOrdering, TransferRateMatchesHeightDifference) {
  const double k = 4.5e-5;
  const double c = 0.625;
  const ExpandedChain expanded = build(100.0);
  const std::size_t j1 = 10;
  const std::size_t j2 = 20;
  const double expected = k * (static_cast<double>(j2) / (1.0 - c) -
                               static_cast<double>(j1) / c);
  EXPECT_NEAR(expanded.chain.generator().at(expanded.state(0, j1, j2),
                                            expanded.state(0, j1 + 1, j2 - 1)),
              expected, 1e-15);
}

TEST_P(ExpandedChainOrdering, NoTransferWhenHeightsReversed) {
  const ExpandedChain expanded = build(100.0);
  // j1/c > j2/(1-c): available well higher, no flow (the guard of
  // Sec. 4.2).
  const std::size_t j1 = 40;
  const std::size_t j2 = 2;
  EXPECT_DOUBLE_EQ(
      expanded.chain.generator().at(expanded.state(0, j1, j2),
                                    expanded.state(0, j1 + 1, j2 - 1)),
      0.0);
}

TEST_P(ExpandedChainOrdering, InitialDistributionConcentrated) {
  const ExpandedChain expanded = build(100.0);
  const LevelGrid& grid = expanded.grid;
  double total = 0.0;
  for (double p : expanded.initial) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(
      expanded.initial[expanded.state(0, grid.initial_available_level(),
                                      grid.initial_bound_level())],
      1.0);
}

TEST_P(ExpandedChainOrdering, EmptyProbabilityReadsTheEmptyLayer) {
  const ExpandedChain expanded = build(100.0);
  EXPECT_DOUBLE_EQ(expanded.empty_probability(expanded.initial), 0.0);
  // Mass placed on (i, 0, j2) counts, mass one level up does not.
  std::vector<double> pi(expanded.grid.state_count(), 0.0);
  pi[expanded.state(1, 0, 7)] = 0.25;
  pi[expanded.state(0, 0, 0)] = 0.5;
  pi[expanded.state(0, 1, 0)] = 0.25;
  EXPECT_DOUBLE_EQ(expanded.empty_probability(pi), 0.75);
  const std::vector<double> wrong_size(3, 0.0);
  EXPECT_THROW(expanded.empty_probability(wrong_size), InvalidArgument);
}

TEST_P(ExpandedChainOrdering, ToGridOrderUndoesTheNumbering) {
  const ExpandedChain expanded = build(100.0);
  const LevelGrid& grid = expanded.grid;
  std::vector<double> pi(grid.state_count());
  for (std::size_t s = 0; s < pi.size(); ++s) pi[s] = static_cast<double>(s);
  const std::vector<double> by_grid = expanded.to_grid_order(pi);
  for (const std::size_t j1 : {std::size_t{0}, std::size_t{13}}) {
    for (const std::size_t j2 : {std::size_t{0}, grid.bound_levels()}) {
      for (std::size_t i = 0; i < grid.workload_states(); ++i) {
        EXPECT_EQ(by_grid[grid.index(i, j1, j2)],
                  pi[expanded.state(i, j1, j2)]);
      }
    }
  }
}

TEST(ExpandedChain, SimpleModelNonZeroCountsScale) {
  // Nonzero count grows like (levels)^2 for the two-well model.  Deltas
  // must divide both u1 = 4500 and u2 = 2700: use 300 and 60.
  const ExpandedChain coarse = build_expanded_chain(onoff_kibam(), 300.0);
  const ExpandedChain fine = build_expanded_chain(onoff_kibam(), 60.0);
  EXPECT_GT(fine.chain.generator().nonzeros(),
            10 * coarse.chain.generator().nonzeros());
}

TEST(ExpandedChain, PaperNonZeroCountAtDelta5) {
  // Sec. 6.1 quotes "more than 3.2e6 nonzero transition rates" for the
  // two-well on/off chain at Delta = 5.  Our chain has 2.92e6 including
  // diagonals -- same order; the paper's exact count depends on their
  // (unpublished) handling of boundary levels, so we pin the magnitude.
  const ExpandedChain expanded = build_expanded_chain(onoff_kibam(), 5.0);
  EXPECT_GT(expanded.chain.generator().nonzeros(), 2500000u);
  EXPECT_LT(expanded.chain.generator().nonzeros(), 4500000u);
}

template <typename T>
bool bitwise_equal(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

TEST(ExpandedChain, DirectLevelEmissionEqualsPermutedNatural) {
  // The level-ordered chain is emitted row by row in its final numbering;
  // it must be exactly the natural chain renumbered after the fact
  // (Permutation::permuted is the oracle), entry for entry and bit for
  // bit, on every grid shape the emitter branches on.
  KibamRmModel erlang3(
      workload::make_onoff_model({.frequency = 1.0, .erlang_k = 3,
                                  .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 0.625,
       .flow_constant = 4.5e-5});
  // Single well (L2 = 0, j1 innermost) with a charge-dependent rate
  // modifier: halve idle -> send below 400 charge units.
  KibamRmModel throttled(workload::make_simple_model(),
                         {.capacity = 800.0, .available_fraction = 1.0,
                          .flow_constant = 0.0});
  const auto send = static_cast<std::size_t>(workload::SimpleState::kSend);
  throttled.set_rate_modifier(
      [send](std::size_t /*from*/, std::size_t to, double y1,
             double /*y2*/) {
        if (to == send && y1 < 400.0) return 0.5;
        return 1.0;
      },
      1.0);
  const struct {
    const char* name;
    KibamRmModel model;
    double delta;
  } cases[] = {{"fig8 delta 25", onoff_kibam(), 25.0},
               {"on/off K=3", erlang3, 100.0},
               {"single well c=1", onoff_c1(), 50.0},
               {"rate modifier", throttled, 10.0}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const ExpandedChain natural =
        build_expanded_chain(c.model, c.delta, StateOrdering::kNone);
    const ExpandedChain level =
        build_expanded_chain(c.model, c.delta, StateOrdering::kLevel);
    ASSERT_TRUE(natural.permutation.is_identity());
    const linalg::CsrMatrix oracle =
        level.permutation.permuted(natural.chain.generator());
    const linalg::CsrMatrix& direct = level.chain.generator();
    EXPECT_TRUE(bitwise_equal(direct.row_pointers(), oracle.row_pointers()));
    EXPECT_TRUE(
        bitwise_equal(direct.column_indices(), oracle.column_indices()));
    EXPECT_TRUE(bitwise_equal(direct.values(), oracle.values()));
    EXPECT_EQ(level.initial, level.permutation.apply(natural.initial));
  }
}

}  // namespace
}  // namespace kibamrm::core
