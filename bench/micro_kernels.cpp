// Google-benchmark micro kernels for the numerical substrate: the CSR
// left-multiply and fused gather, the compressed FusedGatherPlan kernel
// (uniformisation's inner loop), Fox-Glynn window construction and
// plan-cache reuse, the dense complex matrix exponential (the exact
// solver's inner call), a full uniformisation transient solve, and
// expanded-chain construction.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <complex>
#include <random>
#include <vector>

#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/core/expanded_ctmc.hpp"
#include "kibamrm/core/exact_c1.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/linalg/csr_matrix.hpp"
#include "kibamrm/linalg/expm.hpp"
#include "kibamrm/linalg/fused_gather.hpp"
#include "kibamrm/linalg/kernels.hpp"
#include "kibamrm/markov/fox_glynn.hpp"
#include "kibamrm/workload/onoff_model.hpp"
#include "kibamrm/workload/simple_model.hpp"

namespace {

using namespace kibamrm;

linalg::CsrMatrix banded_stochastic(std::size_t n) {
  // Tridiagonal-ish stochastic matrix resembling a uniformised expanded
  // battery chain.
  linalg::CooBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    if (i > 0) {
      builder.add(i, i - 1, 0.3);
      off += 0.3;
    }
    if (i + 1 < n) {
      builder.add(i, i + 1, 0.2);
      off += 0.2;
    }
    builder.add(i, i, 1.0 - off);
  }
  return builder.build();
}

// --------------------------------------------------------------------
// Dispatched kernel layer (linalg/kernels): dot/axpy/nrm2 and the fused
// gather, scalar vs SIMD vs pool-sharded.  The second benchmark argument
// selects the tier (0 = scalar, 1 = avx2, 2 = avx512); SIMD rows are
// skipped on CPUs without the ISA.  The tiers are bitwise identical --
// these benches measure the cost of the contract, not different
// arithmetic.

namespace k = linalg::kernels;

bool select_tier(benchmark::State& state) {
  const auto tier = static_cast<k::Dispatch>(state.range(1));
  if (static_cast<int>(k::detected_dispatch()) < static_cast<int>(tier)) {
    state.SkipWithError("CPU lacks the requested SIMD tier");
    return false;
  }
  k::set_dispatch(tier);
  return true;
}

std::vector<double> random_doubles(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = uniform(rng);
  return v;
}

void BM_KernelDot(benchmark::State& state) {
  if (!select_tier(state)) return;
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_doubles(n, 1);
  const auto b = random_doubles(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k::dot(a.data(), b.data(), n));
  }
  k::clear_dispatch();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * sizeof(double)));
}
BENCHMARK(BM_KernelDot)
    ->Args({4096, 0})->Args({4096, 1})->Args({4096, 2})
    ->Args({262144, 0})->Args({262144, 1})->Args({262144, 2})
    ->Args({2097152, 0})->Args({2097152, 1})->Args({2097152, 2});

void BM_KernelNrm2(benchmark::State& state) {
  if (!select_tier(state)) return;
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto v = random_doubles(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k::nrm2(v.data(), n));
  }
  k::clear_dispatch();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(double)));
}
BENCHMARK(BM_KernelNrm2)->Args({262144, 0})->Args({262144, 1});

void BM_KernelAxpy(benchmark::State& state) {
  if (!select_tier(state)) return;
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_doubles(n, 4);
  auto y = random_doubles(n, 5);
  for (auto _ : state) {
    k::axpy(1e-3, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  k::clear_dispatch();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(3 * n * sizeof(double)));
}
BENCHMARK(BM_KernelAxpy)
    ->Args({4096, 0})->Args({4096, 1})->Args({4096, 2})
    ->Args({262144, 0})->Args({262144, 1})->Args({262144, 2});

void BM_KernelDotSharded(benchmark::State& state) {
  // The sharded reduction exactly as linalg::arnoldi drives it: block
  // partials filled over pool shards, one pairwise reduce -- bitwise
  // equal to the single-thread dot at every lane count (range(1) =
  // pool lanes).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  common::ThreadPool pool(lanes);
  const auto a = random_doubles(n, 6);
  const auto b = random_doubles(n, 7);
  const std::size_t blocks = k::block_count(n);
  std::vector<double> partials(blocks, 0.0);
  const std::size_t shards = std::min(blocks, 4 * pool.thread_count());
  for (auto _ : state) {
    pool.parallel_for(shards, [&](std::size_t s, std::size_t /*lane*/) {
      k::dot_blocks(a.data(), b.data(), n, blocks * s / shards,
                    blocks * (s + 1) / shards, partials.data());
    });
    benchmark::DoNotOptimize(k::reduce_pairwise(partials.data(), blocks));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * sizeof(double)));
}
BENCHMARK(BM_KernelDotSharded)
    ->Args({2097152, 1})->Args({2097152, 2})->Args({2097152, 4});

void BM_FusedGatherReordered(benchmark::State& state) {
  // The production fused gather on the *real* Delta = 25 fig8 chain,
  // natural order vs the level-major reordering (range(0): 0 = none,
  // 1 = level) across kernel tiers (range(1), as in select_tier).  The
  // level ordering packs >99% of the compacted-transpose rows into
  // identical-offset runs, which is what the AVX2/AVX-512 uniform-segment
  // kernels vectorise across -- on natural order the SIMD tiers degrade
  // to the scalar path, so the (1, tier) / (0, tier) ratio is the whole
  // reordering win.  Feeds the perf history via record_history.py.
  if (!select_tier(state)) return;
  const core::KibamRmModel model(
      workload::make_onoff_model({.frequency = 1.0, .erlang_k = 1,
                                  .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 0.625,
       .flow_constant = 4.5e-5});
  const auto expanded = core::build_expanded_chain(
      model, 25.0,
      state.range(0) == 1 ? core::StateOrdering::kLevel
                          : core::StateOrdering::kNone);
  const linalg::CsrMatrix p = expanded.chain.generator().uniformized(
      1.02 * expanded.chain.max_exit_rate());
  std::vector<std::uint32_t> seeds;
  for (std::size_t i = 0; i < expanded.initial.size(); ++i) {
    if (expanded.initial[i] != 0.0) {
      seeds.push_back(static_cast<std::uint32_t>(i));
    }
  }
  const linalg::CsrMatrix pt = p.transposed_submatrix(p.reachable_rows(seeds));
  const auto plan = linalg::FusedGatherPlan::build(pt);
  const std::size_t n = pt.rows();
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> out(n, 0.0);
  std::vector<double> accum(n, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        plan->multiply_fused_range(pi, out, accum, 1e-4, 0, n));
    pi.swap(out);
  }
  k::clear_dispatch();
  state.counters["uniform_fraction"] = plan->uniform_fraction();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(plan->nonzeros()));
}
BENCHMARK(BM_FusedGatherReordered)
    ->Args({0, 0})->Args({1, 0})
    ->Args({0, 1})->Args({1, 1})
    ->Args({0, 2})->Args({1, 2});

void BM_CsrLeftMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::CsrMatrix p = banded_stochastic(n);
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> out(n);
  for (auto _ : state) {
    p.left_multiply(pi, out);
    pi.swap(out);
    benchmark::DoNotOptimize(pi.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p.nonzeros()));
}
BENCHMARK(BM_CsrLeftMultiply)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_CsrMultiplyFusedRange(benchmark::State& state) {
  // The fused gather step (spmv + weighted accumulate + sup-norm delta in
  // one pass) on the transposed banded chain -- the per-iteration work of
  // the fused uniformisation loop, CSR fallback flavour.
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::CsrMatrix pt = banded_stochastic(n).transposed();
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> out(n, 0.0);
  std::vector<double> accum(n, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pt.multiply_fused_range(pi, out, accum, 1e-4, 0, n));
    pi.swap(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pt.nonzeros()));
}
BENCHMARK(BM_CsrMultiplyFusedRange)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_FusedGatherPlanKernel(benchmark::State& state) {
  // Same fused step through the compressed plan (uint16 value dictionary +
  // int16 column offsets): the production kernel of the uniformisation
  // engines.  Compare against BM_CsrMultiplyFusedRange for the layout win.
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::CsrMatrix pt = banded_stochastic(n).transposed();
  const auto plan = linalg::FusedGatherPlan::build(pt);
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> out(n, 0.0);
  std::vector<double> accum(n, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        plan->multiply_fused_range(pi, out, accum, 1e-4, 0, n));
    pi.swap(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(plan->nonzeros()));
}
BENCHMARK(BM_FusedGatherPlanKernel)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_FoxGlynnWindow(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const auto window = markov::fox_glynn(lambda, 1e-10);
    benchmark::DoNotOptimize(window.weights.data());
  }
}
BENCHMARK(BM_FoxGlynnWindow)->Arg(10)->Arg(1000)->Arg(46000);

void BM_FoxGlynnPlanReuse(benchmark::State& state) {
  // Cached window lookup -- the per-increment cost on a uniform time grid
  // once the first increment has computed the window.
  markov::UniformizationPlan plan;
  const double lambda = static_cast<double>(state.range(0));
  plan.window(lambda, 1e-10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.window(lambda, 1e-10).get());
  }
}
BENCHMARK(BM_FoxGlynnPlanReuse)->Arg(1000)->Arg(46000);

void BM_ComplexExpm3x3(benchmark::State& state) {
  // The exact solver's inner call: exp(t (Q - s R)) for the simple model.
  linalg::DenseComplex m(3, 3);
  const std::complex<double> s(0.01, 0.4);
  const double t = 20.0;
  const double q[3][3] = {{-3.0, 2.0, 1.0}, {6.0, -6.0, 0.0}, {2.0, 0.0, -2.0}};
  const double r[3] = {8.0, 200.0, 0.0};
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      m(i, j) = std::complex<double>(q[i][j] * t, 0.0);
      if (i == j) m(i, j) -= s * r[i] * t;
    }
  }
  for (auto _ : state) {
    const auto e = linalg::expm(m);
    benchmark::DoNotOptimize(&e);
  }
}
BENCHMARK(BM_ComplexExpm3x3);

void BM_ExactC1CurvePoint(benchmark::State& state) {
  const core::KibamRmModel model(workload::make_simple_model(),
                                 {.capacity = 800.0,
                                  .available_fraction = 1.0,
                                  .flow_constant = 0.0});
  const core::ExactC1Solver solver(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.empty_probability(20.0));
  }
}
BENCHMARK(BM_ExactC1CurvePoint);

void BM_BuildExpandedChain(benchmark::State& state) {
  const double delta = static_cast<double>(state.range(0));
  const core::KibamRmModel model(
      workload::make_onoff_model({.frequency = 1.0, .erlang_k = 1,
                                  .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 0.625,
       .flow_constant = 4.5e-5});
  for (auto _ : state) {
    const auto expanded = core::build_expanded_chain(model, delta);
    benchmark::DoNotOptimize(&expanded);
    state.counters["states"] =
        static_cast<double>(expanded.grid.state_count());
    state.counters["nnz"] =
        static_cast<double>(expanded.chain.generator().nonzeros());
  }
}
BENCHMARK(BM_BuildExpandedChain)->Arg(100)->Arg(25)->Arg(10);

void BM_TransientSolve(benchmark::State& state) {
  // End-to-end uniformisation on the Delta = 25 single-well chain:
  // compacted fused gather plus steady-state early termination.
  const core::KibamRmModel model(
      workload::make_onoff_model({.frequency = 1.0, .erlang_k = 1,
                                  .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 1.0, .flow_constant = 0.0});
  const auto expanded = core::build_expanded_chain(model, 25.0);
  for (auto _ : state) {
    const auto solver = engine::make_backend("uniformization");
    const auto result =
        solver->solve(expanded.chain, expanded.initial, {15000.0});
    benchmark::DoNotOptimize(result.front().data());
  }
}
BENCHMARK(BM_TransientSolve);

}  // namespace
