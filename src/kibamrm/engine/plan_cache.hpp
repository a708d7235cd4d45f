// Cross-scenario cache of solve-plan setup for the fused uniformisation
// engines.
//
// A ScenarioBatch sweep (Fig. 8: one curve per Delta; Table 1: one per
// workload) repeatedly expands chains with *identical* Q*-structure --
// same sparsity, same rates, same initial support -- differing only in
// the time grid.  Each solve used to rebuild the reachable closure, the
// compacted transpose and the FusedGatherPlan from scratch; this cache
// keys that immutable setup on a content hash of (generator structure +
// values, uniformisation rate, initial support) and shares one
// CachedGatherPlan across every lane and solve of one batch that matches.
//
// Sharing is safe because everything cached is immutable after build:
// the consuming backends only read the plan (FusedGatherPlan kernels are
// const), and shared_ptr keeps an entry alive across concurrent lanes.
// Bitwise determinism is untouched -- a cached plan is byte-identical to
// the one the solve would have rebuilt, so curves cannot change.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "kibamrm/common/thread_annotations.hpp"
#include "kibamrm/engine/chunk_window.hpp"
#include "kibamrm/linalg/csr_matrix.hpp"
#include "kibamrm/linalg/fused_gather.hpp"
#include "kibamrm/linalg/permutation.hpp"

namespace kibamrm::engine {

/// The immutable per-chain setup of a fused uniformisation solve.  Built
/// once (build_cached_gather_plan), then only read.
struct CachedGatherPlan {
  /// States of the generator the plan was built from.
  std::size_t state_count = 0;
  /// Sorted reachable closure of the initial support (full-chain state
  /// ids); the loop dimension is reachable.size().
  std::vector<std::uint32_t> reachable;
  /// The mass window's per-chunk reach and work over the compacted
  /// transpose.  The gather executor's step span and shard split run off
  /// it, so it is derived once per plan, not once per solve and lane.
  ChunkWindow window;
  std::uint64_t nonzeros = 0;
  linalg::StructureStats structure;
  /// Compressed kernel plan; nullopt when the chain fits neither layout.
  std::optional<linalg::FusedGatherPlan> plan;
  /// CSR fallback, retained only when `plan` could not build (the
  /// compressed layout otherwise replaces it).
  linalg::CsrMatrix transpose{1, 1};

  std::size_t rows() const { return reachable.size(); }

  /// The fused gather step over rows [begin, end) through `plan`, or the
  /// CSR fallback `transpose` -- bitwise the same arithmetic either way
  /// (see FusedGatherPlan::multiply_fused_range).
  double multiply_fused_range(const std::vector<double>& x,
                              std::vector<double>& out,
                              std::vector<double>& accum, double weight,
                              std::size_t begin, std::size_t end) const {
    return plan ? plan->multiply_fused_range(x, out, accum, weight, begin, end)
                : transpose.multiply_fused_range(x, out, accum, weight, begin,
                                                 end);
  }

  /// The cheap invariants a cache lookup checks before trusting a key
  /// match: `generator` has the plan's state count and every seed lies in
  /// the closure.
  bool serves(const linalg::CsrMatrix& generator,
              std::span<const std::uint32_t> seeds) const;
};

/// Uniformises `generator` at `rate`, compacts to the reachable closure
/// of `seeds` and builds the gather plan -- the setup of every
/// uniformisation solve, cache or no cache.
std::shared_ptr<const CachedGatherPlan> build_cached_gather_plan(
    const linalg::CsrMatrix& generator, double rate,
    std::span<const std::uint32_t> seeds);

/// Content hash the cache keys on: generator structure arrays and values
/// (exact bytes), the uniformisation rate bits and the seed set.  Chains
/// whose hashes collide would share a plan wrongly; at 64 bits over
/// full-content hashing that is vanishingly unlikely, and
/// GatherPlanCache::obtain additionally rebuilds when an entry fails
/// CachedGatherPlan::serves (state count, seeds inside the closure).
std::uint64_t gather_plan_key(const linalg::CsrMatrix& generator, double rate,
                              std::span<const std::uint32_t> seeds);

/// Thread-safe keyed store of CachedGatherPlans, shared by every lane of
/// a ScenarioBatch through BackendOptions::plan_cache.
class GatherPlanCache {
 public:
  /// Returns the cached plan for `key`, or builds + inserts one from the
  /// given chain data.  Concurrent lanes may race to build the same key;
  /// the first insert wins and later builders adopt it (the builds are
  /// deterministic, so either copy is byte-identical).
  std::shared_ptr<const CachedGatherPlan> obtain(
      const linalg::CsrMatrix& generator, double rate,
      std::span<const std::uint32_t> seeds);

  /// Counters for telemetry and tests.
  std::uint64_t plans_built() const;
  std::uint64_t plans_reused() const;

 private:
  mutable common::Mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const CachedGatherPlan>> entries_
      KIBAMRM_GUARDED_BY(mutex_);
  std::uint64_t built_ KIBAMRM_GUARDED_BY(mutex_) = 0;
  std::uint64_t reused_ KIBAMRM_GUARDED_BY(mutex_) = 0;
};

}  // namespace kibamrm::engine
