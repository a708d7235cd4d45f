// Tests for the sharded (multi-process) uniformisation backend, its
// ShardPlan partitioner, the ShmChannel transport and the batch-shared
// gather-plan cache.
//
// The three properties CI leans on:
//   1. curves are *bitwise* identical to the "parallel" engine at every
//      shards x threads combination (the coordinator replicates the
//      parallel backend's bookkeeping exactly, workers run the same fused
//      kernels over the same operands),
//   2. a worker crash surfaces as common::IpcError on that scenario only
//      -- the coordinator reaps the remaining workers and the batch layer
//      keeps every other curve, and
//   3. the plan cache never changes a result, it only skips setup work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "kibamrm/common/error.hpp"
#include "kibamrm/common/shm_channel.hpp"
#include "kibamrm/core/approx_solver.hpp"
#include "kibamrm/core/expanded_ctmc.hpp"
#include "kibamrm/engine/plan_cache.hpp"
#include "kibamrm/engine/scenario_batch.hpp"
#include "kibamrm/engine/sharded_backend.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/linalg/shard_plan.hpp"
#include "kibamrm/markov/uniformization.hpp"
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

/// Scoped KIBAMRM_SHARDED_FAULT: set on construction, cleared on
/// destruction, so a failing test cannot poison its neighbours.
class ScopedFault {
 public:
  explicit ScopedFault(const char* spec) {
    ::setenv("KIBAMRM_SHARDED_FAULT", spec, 1);
  }
  ~ScopedFault() { ::unsetenv("KIBAMRM_SHARDED_FAULT"); }
};

TEST(ShardPlan, BandsPartitionRowsAndPadToShardCount) {
  const std::vector<std::uint32_t> counts = {3, 1, 4, 1, 5, 9, 2, 6};
  const std::vector<std::uint32_t> lo = {0, 1, 0, 3, 2, 4, 5, 6};
  const std::vector<std::uint32_t> hi = {2, 1, 3, 3, 6, 7, 6, 7};
  const auto plan = linalg::ShardPlan::build(counts, lo, hi, 3);
  ASSERT_EQ(plan.shard_count(), 3u);
  ASSERT_EQ(plan.bands().size(), 3u);
  std::size_t covered = 0;
  std::uint64_t nonzeros = 0;
  for (const linalg::ShardBand& band : plan.bands()) {
    EXPECT_EQ(band.row_begin, covered);
    covered = band.row_end;
    nonzeros += band.nonzeros;
  }
  EXPECT_EQ(covered, counts.size());
  EXPECT_EQ(nonzeros, 31u);
  EXPECT_GE(plan.nnz_imbalance(), 1.0);
  // More shards than rows: trailing bands are empty but present.
  const auto wide = linalg::ShardPlan::build(counts, lo, hi, 16);
  EXPECT_EQ(wide.bands().size(), 16u);
  EXPECT_EQ(wide.bands().back().rows(), 0u);
}

TEST(ShardPlan, HaloSpansLieInsideTheSourceBand) {
  const auto expanded = core::build_expanded_chain(fig8_kibam(), 100.0);
  const double rate = 1.02 * expanded.chain.max_exit_rate();
  const linalg::CsrMatrix pt =
      expanded.chain.generator().uniformized(rate).transposed();
  const auto plan = linalg::ShardPlan::build(pt, 4);
  EXPECT_GT(plan.halo_spans().size(), 0u) << "banded chain must have halos";
  std::uint64_t bytes = 0;
  for (const linalg::HaloSpan& span : plan.halo_spans()) {
    ASSERT_NE(span.source, span.dest);
    const linalg::ShardBand& source = plan.bands()[span.source];
    const linalg::ShardBand& dest = plan.bands()[span.dest];
    EXPECT_GE(span.begin, source.row_begin);
    EXPECT_LE(span.end, source.row_end);
    EXPECT_GE(span.begin, dest.col_begin);
    EXPECT_LE(span.end, dest.col_end);
    EXPECT_LT(span.begin, span.end);
    bytes += span.rows() * sizeof(double);
  }
  EXPECT_EQ(plan.halo_bytes_per_step(), bytes);
}

TEST(ShardPlan, AlignedBandsCutAtChunkEdges) {
  // The sharded engine cuts at the mass window's chunk edges so every
  // chunk has one owner; snapped cuts that collapse leave trailing empty
  // bands, never a gap.
  const std::size_t n = 5 * markov::kDropChunkRows + 77;
  const std::vector<std::uint32_t> counts(n, 3);
  std::vector<std::uint32_t> lo(n);
  std::vector<std::uint32_t> hi(n);
  for (std::size_t r = 0; r < n; ++r) {
    lo[r] = static_cast<std::uint32_t>(r == 0 ? 0 : r - 1);
    hi[r] = static_cast<std::uint32_t>(std::min(n - 1, r + 1));
  }
  for (const std::size_t shards : {2u, 3u, 4u, 8u}) {
    const auto plan = linalg::ShardPlan::build(counts, lo, hi, shards,
                                               markov::kDropChunkRows);
    ASSERT_EQ(plan.bands().size(), shards);
    std::size_t covered = 0;
    for (const linalg::ShardBand& band : plan.bands()) {
      EXPECT_EQ(band.row_begin, covered);
      EXPECT_TRUE(band.row_begin % markov::kDropChunkRows == 0 ||
                  band.row_begin == n)
          << "shards " << shards << ": band starts at " << band.row_begin;
      covered = band.row_end;
    }
    EXPECT_EQ(covered, n);
  }
  // Eight shards over six chunks: at most six bands hold rows.
  const auto wide = linalg::ShardPlan::build(counts, lo, hi, 8,
                                             markov::kDropChunkRows);
  EXPECT_EQ(wide.bands().back().rows(), 0u);
}

TEST(ShmChannel, RoundTripsFramesAndDetectsCorruption) {
  auto channel = common::ShmChannel::create(1 << 12);
  const std::vector<double> payload = {1.0, -2.5, 3.25};
  channel.send(7, payload.data(), payload.size() * sizeof(double));
  common::ShmFrame frame;
  channel.recv(frame);
  EXPECT_EQ(frame.type, 7u);
  ASSERT_EQ(frame.payload.size(), payload.size() * sizeof(double));
  std::vector<double> out(payload.size());
  std::memcpy(out.data(), frame.payload.data(), frame.payload.size());
  EXPECT_EQ(out, payload);

  // decode_shm_frame is the single validation path: a flipped payload
  // byte must fail the checksum with IpcError.
  std::vector<std::byte> encoded;
  common::encode_shm_frame(7, std::as_bytes(std::span(payload)), encoded);
  common::ShmFrame decoded;
  EXPECT_EQ(common::decode_shm_frame(encoded, decoded), encoded.size());
  encoded[common::kShmFrameHeaderBytes] ^= std::byte{0x40};
  EXPECT_THROW(common::decode_shm_frame(encoded, decoded), IpcError);
}

TEST(ShmChannel, ClosedChannelFailsPendingRecv) {
  auto channel = common::ShmChannel::create(1 << 10);
  channel.close();
  common::ShmFrame frame;
  EXPECT_THROW(channel.recv(frame), IpcError);
}

TEST(ShardedBackend, RegisteredByName) {
  EXPECT_TRUE(is_backend_name("sharded"));
  EXPECT_EQ(make_backend("sharded")->name(), "sharded");
}

TEST(ShardedBackend, RejectsBadOptions) {
  EXPECT_THROW(make_backend("sharded", {.epsilon = 0.0}), Error);
}

TEST(ShardedBackend, BitwiseIdenticalToParallelAtEveryShardThreadCombo) {
  // The acceptance property: full distributions agree *bitwise* with the
  // parallel engine (itself bitwise across thread counts) for every
  // tested shards x threads combination, and steady-state detection
  // fires at the same step (iteration counts equal).  Delta = 50 puts
  // the chain above the inner pool threshold, so threads = 2 runs the
  // per-worker pool path too.
  const auto expanded = core::build_expanded_chain(fig8_kibam(), 50.0);
  const std::vector<double> times = {8000.0, 12000.0};
  auto reference = make_backend("parallel", {.threads = 1});
  const auto expected =
      reference->solve(expanded.chain, expanded.initial, times);
  const std::uint64_t expected_iterations =
      reference->last_stats().iterations;

  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t threads : {1u, 2u}) {
      auto backend =
          make_backend("sharded", {.threads = threads, .shards = shards});
      const auto actual =
          backend->solve(expanded.chain, expanded.initial, times);
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t k = 0; k < times.size(); ++k) {
        EXPECT_EQ(actual[k], expected[k])
            << "bitwise divergence at shards=" << shards
            << " threads=" << threads << " t=" << times[k];
      }
      const BackendStats& stats = backend->last_stats();
      EXPECT_EQ(stats.iterations, expected_iterations)
          << "detection must fire at the same step";
      EXPECT_EQ(stats.shards, shards);
      EXPECT_EQ(stats.active_states, reference->last_stats().active_states);
      EXPECT_EQ(stats.active_nonzeros,
                reference->last_stats().active_nonzeros);
      EXPECT_GE(stats.shard_nnz_imbalance, shards > 1 ? 1.0 : 0.0);
      if (shards > 1) {
        EXPECT_GT(stats.halo_bytes_per_step, 0u)
            << "multi-shard bands must exchange halos";
      } else {
        EXPECT_EQ(stats.halo_bytes_per_step, 0u);
      }
    }
  }
}

TEST(ShardedBackend, CurveMatchesParallelThroughApproximationLayer) {
  const auto times = core::uniform_grid(6000.0, 20000.0, 10);
  core::MarkovianApproximation parallel(
      fig8_kibam(), {.delta = 300.0, .engine = "parallel", .threads = 1});
  const core::LifetimeCurve expected = parallel.solve(times);
  core::MarkovianApproximation sharded(
      fig8_kibam(),
      {.delta = 300.0, .engine = "sharded", .threads = 1, .shards = 2});
  const core::LifetimeCurve curve = sharded.solve(times);
  EXPECT_EQ(curve.probabilities(), expected.probabilities())
      << "curves must be bitwise equal, not merely close";
  EXPECT_EQ(sharded.last_stats().shards, 2u);
  EXPECT_EQ(sharded.last_stats().uniformization_iterations,
            parallel.last_stats().uniformization_iterations);
}

TEST(ShardedBackend, DetectionOnOffAgreeAndAccountingCloses) {
  // Delta = 50 is the coarsest fig8 grid whose curve saturates inside the
  // horizon (see the parallel detection test), and the late increments of
  // a multi-point grid are where the chain sits still long enough for the
  // calm-step guard -- detection must actually fire here, and the
  // skipped-vs-executed accounting must close.
  const auto expanded = core::build_expanded_chain(fig8_kibam(), 50.0);
  const std::vector<double> times = core::uniform_grid(6000.0, 20000.0, 12);
  auto on = make_backend("sharded", {.shards = 2});
  auto off =
      make_backend("sharded", {.steady_state_detection = false, .shards = 2});
  const auto a = on->solve(expanded.chain, expanded.initial, times);
  const auto b = off->solve(expanded.chain, expanded.initial, times);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(on->last_stats().iterations_saved, 0u);
  EXPECT_EQ(on->last_stats().iterations + on->last_stats().iterations_saved,
            off->last_stats().iterations);
}

TEST(ShardedBackend, WorkerDeathRaisesIpcErrorAndBackendRecovers) {
  const auto expanded = core::build_expanded_chain(fig8_kibam(), 300.0);
  const std::vector<double> times = {10000.0};
  auto backend = make_backend("sharded", {.shards = 2});
  {
    ScopedFault fault("exit:1");
    EXPECT_THROW(backend->solve(expanded.chain, expanded.initial, times),
                 IpcError);
  }
  // The coordinator reaped the solve's workers; the same backend object
  // must solve cleanly once the fault is gone.
  const auto result = backend->solve(expanded.chain, expanded.initial, times);
  ASSERT_EQ(result.size(), times.size());
  auto reference = make_backend("parallel", {.threads = 1});
  EXPECT_EQ(result,
            reference->solve(expanded.chain, expanded.initial, times));
}

TEST(ScenarioBatch, IsolatesShardedWorkerDeathToItsScenario) {
  // The fault's min-states floor (1000) sits between the Delta = 450
  // chain (~a few hundred states) and the Delta = 50 chain (~10k), so
  // only the fine scenario's worker 0 crashes.
  const auto times = core::uniform_grid(6000.0, 20000.0, 4);
  std::vector<Scenario> scenarios = {
      {"coarse", fig8_kibam(), 450.0, times},
      {"fine", fig8_kibam(), 50.0, times},
  };
  ScopedFault fault("exit:0:1000");
  ScenarioBatch batch({.engine = "sharded", .threads = 2, .shards = 2});
  const auto results = batch.solve_all(scenarios);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].curve.has_value());
  EXPECT_FALSE(results[0].failed);
  EXPECT_TRUE(results[1].failed);
  EXPECT_FALSE(results[1].curve.has_value());
  EXPECT_NE(results[1].failure_reason.find("worker"), std::string::npos)
      << results[1].failure_reason;
  EXPECT_EQ(batch.last_stats().failed, 1u);
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

}  // namespace
}  // namespace kibamrm::engine
