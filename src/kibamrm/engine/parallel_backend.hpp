// Parallel uniformisation backend: the paper's transient solver with its
// sparse matrix-vector products sharded across a thread pool.
//
// The solve runs markov::UniformizationDriver over a GatherExecutor: the
// loop works in the compacted reachable closure of the initial support
// (expanded battery chains reach only ~half their states from the
// full-charge start) and gathers over the compacted transpose of P,
//     next[j] = sum_k P^T(j,k) * power[k]  =  (power * P)[j],
// so each output entry is one row dot product and disjoint row ranges
// shard across the pool without synchronisation.  The immutable setup
// (closure, transpose, compressed gather plan) comes from
// engine/plan_cache.hpp -- shared across a ScenarioBatch when
// options.plan_cache is set.
//
// Because every out[j] is summed in the fixed canonical order of its row
// and per-shard deltas reduce by max, the result is bitwise identical for
// every thread count and shard partition -- "--threads 8" reproduces
// "--threads 1" exactly, which the determinism tests in
// tests/test_engine_parallel.cpp pin down.  Pinned to one lane this is
// the registry's "uniformization" engine.
#pragma once

#include <memory>
#include <string_view>

#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/engine/gather_executor.hpp"
#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/markov/uniformization.hpp"

namespace kibamrm::engine {

class ParallelUniformizationBackend final : public TransientBackend {
 public:
  /// `name` is the registry name the instance reports ("uniformization"
  /// for the one-lane alias).
  explicit ParallelUniformizationBackend(BackendOptions options,
                                         std::string_view name = "parallel");

  std::string_view name() const override { return name_; }

  std::vector<std::vector<double>> solve(
      const markov::Ctmc& chain, const std::vector<double>& initial,
      const std::vector<double>& times,
      const PointCallback& on_point = nullptr) override;

  const BackendStats& last_stats() const override { return stats_; }

  /// Lanes the pool actually runs (after auto-detection).
  std::size_t thread_count() const { return pool_->thread_count(); }

 private:
  BackendOptions options_;
  std::string_view name_;
  BackendStats stats_;
  std::unique_ptr<common::ThreadPool> pool_;
  // Fox-Glynn windows (driver) and step vectors (executor), reused
  // across solve() calls.
  markov::UniformizationDriver driver_;
  GatherExecutor executor_;
};

}  // namespace kibamrm::engine
