// Property tests for the state-reordering permutation layer: the
// permutation algebra itself (bijection validation, inverse, composition,
// edge cases), symmetric matrix permutation, the level ordering's
// groupable rows on the real fig8 chain, and the end-to-end invariants the reorder flag
// promises -- the transient distribution does not depend on the state
// numbering (within the solver's 10 eps agreement budget), and the
// inverse-permuted curves stay bitwise deterministic across thread
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <vector>

#include "kibamrm/common/error.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/expanded_ctmc.hpp"
#include "kibamrm/engine/scenario_batch.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/linalg/csr_matrix.hpp"
#include "kibamrm/linalg/permutation.hpp"
#include "kibamrm/markov/ctmc.hpp"
#include "kibamrm/workload/onoff_model.hpp"

namespace kibamrm {
namespace {

using linalg::CooBuilder;
using linalg::CsrMatrix;
using linalg::Permutation;

core::KibamRmModel fig8_model() {
  return core::KibamRmModel(
      workload::make_onoff_model(
          {.frequency = 1.0, .erlang_k = 1, .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 0.625,
       .flow_constant = 4.5e-5});
}

Permutation random_permutation(std::size_t n, unsigned seed) {
  std::vector<std::uint32_t> p(n);
  std::iota(p.begin(), p.end(), 0u);
  std::mt19937 rng(seed);
  std::shuffle(p.begin(), p.end(), rng);
  return Permutation(std::move(p));
}

TEST(Permutation, EmptyIdentitySingletonEdgeCases) {
  const Permutation empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.is_identity());
  EXPECT_TRUE(empty.apply({}).empty());
  EXPECT_TRUE(empty.apply_inverse({}).empty());

  const Permutation one = Permutation::identity(1);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_TRUE(one.is_identity());
  EXPECT_EQ(one.apply({3.5}), std::vector<double>{3.5});

  const Permutation id = Permutation::identity(5);
  EXPECT_TRUE(id.is_identity());
  EXPECT_TRUE(id.inverse().is_identity());
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_EQ(id.apply(v), v);
  EXPECT_EQ(id.apply_inverse(v), v);
}

TEST(Permutation, RejectsNonBijections) {
  EXPECT_THROW(Permutation({0, 0, 1}), InvalidArgument);
  EXPECT_THROW(Permutation({1, 2, 3}), InvalidArgument);  // out of range
}

TEST(Permutation, InverseAndCompositionRoundTrip) {
  const Permutation p = random_permutation(257, 1);
  const Permutation inv = p.inverse();
  EXPECT_TRUE(p.then(inv).is_identity());
  EXPECT_TRUE(inv.then(p).is_identity());

  std::vector<double> v(257);
  std::mt19937 rng(2);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  for (double& x : v) x = uniform(rng);
  EXPECT_EQ(p.apply_inverse(p.apply(v)), v);
  EXPECT_EQ(inv.apply(v), p.apply_inverse(v));
}

TEST(Permutation, SymmetricMatrixPermutationPreservesEntries) {
  const std::size_t n = 64;
  CooBuilder builder(n, n);
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> uniform(0.1, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, (i + 7) % n, uniform(rng));
    builder.add(i, (i * 3 + 1) % n, uniform(rng));
  }
  const CsrMatrix a = builder.build();
  const Permutation p = random_permutation(n, 4);
  const CsrMatrix b = p.permuted(a);
  EXPECT_EQ(b.nonzeros(), a.nonzeros());
  // Entry-by-entry: B(p[i], p[j]) == A(i, j), checked through dense probes.
  std::vector<double> e(n, 0.0), row_a(n, 0.0), row_b(n, 0.0);
  for (std::size_t i = 0; i < n; i += 13) {
    std::vector<double> x(n, 0.0);
    x[i] = 1.0;  // row i of A via e_i^T A
    a.left_multiply(x, row_a);
    std::vector<double> y(n, 0.0);
    y[p[i]] = 1.0;
    b.left_multiply(y, row_b);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(row_b[p[j]], row_a[j]) << i << "," << j;
    }
  }
}

// The matrix the fused uniformisation loop actually iterates: the
// transpose of the uniformised generator, compacted to the reachable
// closure of the initial support.
linalg::CsrMatrix compacted_transpose(const core::ExpandedChain& expanded) {
  const CsrMatrix p = expanded.chain.generator().uniformized(
      1.02 * expanded.chain.max_exit_rate());
  std::vector<std::uint32_t> seeds;
  for (std::size_t i = 0; i < expanded.initial.size(); ++i) {
    if (expanded.initial[i] != 0.0) {
      seeds.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return p.transposed_submatrix(p.reachable_rows(seeds));
}

TEST(Permutation, LevelOrderingRaisesFig8GroupableRows) {
  // The point of the level ordering: on the matrix the solver iterates
  // (the compacted transpose of the real expanded battery chain) it must
  // raise the groupable-row fraction to (nearly) everything.
  const auto natural =
      core::build_expanded_chain(fig8_model(), 50.0,
                                 core::StateOrdering::kNone);
  const auto stats_nat =
      linalg::structure_stats(compacted_transpose(natural));
  const auto level = core::build_expanded_chain(
      fig8_model(), 50.0, core::StateOrdering::kLevel);
  const auto stats_level =
      linalg::structure_stats(compacted_transpose(level));
  EXPECT_GT(stats_level.groupable_fraction(), 0.95);
  EXPECT_GT(stats_level.groupable_fraction(),
            stats_nat.groupable_fraction());
}

TEST(Permutation, LevelIsTheDefaultOrdering) {
  // Callers that name no ordering get the level-major chain, and with it
  // the diagonal runs the uniform-segment gather kernels need.
  const std::vector<double> times = {8000.0, 12000.0};
  core::MarkovianApproximation approximation(fig8_model(), {.delta = 100.0});
  approximation.solve(times);
  EXPECT_EQ(approximation.last_stats().reorder, "level");
  EXPECT_GT(approximation.last_stats().diagonal_rows, 0u);
  EXPECT_EQ(approximation.expanded_chain().ordering,
            core::StateOrdering::kLevel);

  engine::ScenarioBatch batch;
  const auto results = batch.solve_all(
      {{.label = "fig8", .model = fig8_model(), .delta = 100.0,
        .times = times}});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].curve.has_value());
  EXPECT_EQ(results[0].stats.reorder, "level");
  EXPECT_GT(results[0].stats.diagonal_rows, 0u);
}

TEST(Permutation, TransientDistributionInvariantUnderAnyPermutation) {
  // Permuting generator and initial together and inverse-permuting the
  // result is a pure renumbering: the distribution must agree with the
  // unpermuted solve within the solver's agreement budget (10 eps).
  const auto expanded =
      core::build_expanded_chain(fig8_model(), 100.0,
                                 core::StateOrdering::kNone);
  const std::size_t n = expanded.chain.state_count();
  const engine::BackendOptions options{.epsilon = 1e-10};
  const auto solver = engine::make_backend("uniformization", options);
  const auto base =
      solver->solve(expanded.chain, expanded.initial, {9000.0}).front();

  for (const unsigned seed : {5u, 6u}) {
    const Permutation p = random_permutation(n, seed);
    const markov::Ctmc permuted_chain(p.permuted(expanded.chain.generator()));
    const auto permuted =
        solver->solve(permuted_chain, p.apply(expanded.initial), {9000.0})
            .front();
    const auto back = p.apply_inverse(permuted);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(back[i], base[i], 10.0 * options.epsilon)
          << "state " << i << " seed " << seed;
    }
  }
}

TEST(Permutation, ReorderedCurvesAgreeAcrossOrderings) {
  // The end-to-end reorder flag: every ordering must yield the same
  // lifetime curve within 10 eps of the configured epsilon.
  const auto times = std::vector<double>{8000.0, 12000.0, 16000.0};
  const double epsilon = 1e-10;
  std::vector<std::vector<double>> curves;
  for (const auto ordering :
       {core::StateOrdering::kNone, core::StateOrdering::kLevel}) {
    const auto expanded =
        core::build_expanded_chain(fig8_model(), 100.0, ordering);
    auto backend = engine::make_backend("uniformization",
                                        {.epsilon = epsilon});
    curves.push_back(
        core::solve_empty_probability_curve(expanded, *backend, times,
                                            epsilon)
            .probabilities());
  }
  for (std::size_t k = 1; k < curves.size(); ++k) {
    for (std::size_t i = 0; i < times.size(); ++i) {
      EXPECT_NEAR(curves[k][i], curves[0][i], 10.0 * epsilon)
          << "ordering " << k << " point " << i;
    }
  }
}

TEST(Permutation, ReorderedParallelBitwiseAcrossThreadCounts) {
  // Reordering must not cost the parallel backend its determinism
  // guarantee: the inverse-permuted curve is bitwise identical at every
  // thread count (and across serial vs pool execution).
  const auto times = std::vector<double>{8000.0, 14000.0};
  const auto expanded = core::build_expanded_chain(
      fig8_model(), 50.0, core::StateOrdering::kLevel);
  std::vector<double> reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    auto backend = engine::make_backend(
        "parallel", {.epsilon = 1e-10, .threads = threads});
    const auto probs =
        core::solve_empty_probability_curve(expanded, *backend, times,
                                            1e-10)
            .probabilities();
    if (reference.empty()) {
      reference = probs;
      continue;
    }
    EXPECT_EQ(probs, reference) << threads << " threads";
  }
}

}  // namespace
}  // namespace kibamrm
