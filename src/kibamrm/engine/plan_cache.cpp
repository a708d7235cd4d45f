#include "kibamrm/engine/plan_cache.hpp"

#include <algorithm>

namespace kibamrm::engine {

namespace {

/// 64-bit FNV-1a over `bytes` bytes starting at `data`; `seed` chains
/// multi-span hashes (pass the previous digest).
std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace

std::shared_ptr<const CachedGatherPlan> build_cached_gather_plan(
    const linalg::CsrMatrix& generator, double rate,
    std::span<const std::uint32_t> seeds) {
  auto cached = std::make_shared<CachedGatherPlan>();
  cached->state_count = generator.rows();
  linalg::CsrMatrix p = generator.uniformized(rate);
  cached->reachable = p.reachable_rows(seeds);
  linalg::CsrMatrix pt = p.transposed_submatrix(cached->reachable);
  p = linalg::CsrMatrix(1, 1);  // only needed for setup
  cached->structure = linalg::structure_stats(pt);
  cached->nonzeros = pt.nonzeros();
  cached->window = ChunkWindow(pt);
  cached->plan = linalg::FusedGatherPlan::build(pt);
  if (cached->plan) {
    // The packed layout replaces the CSR copy; chains that fit neither
    // compressed layout keep the transpose as the kernel fallback.
    pt = linalg::CsrMatrix(1, 1);
  }
  cached->transpose = std::move(pt);
  return cached;
}

void CachedGatherPlan::describe(markov::TransientStats& stats) const {
  stats.active_nonzeros = nonzeros;
  stats.matrix_bandwidth = structure.bandwidth;
  stats.groupable_rows = structure.groupable_rows;
  stats.longest_uniform_run = structure.longest_uniform_run;
  stats.diagonal_rows = structure.diagonal_rows;
  stats.longest_diagonal_run = structure.longest_diagonal_run;
}

bool CachedGatherPlan::serves(const linalg::CsrMatrix& generator,
                              std::span<const std::uint32_t> seeds) const {
  if (state_count != generator.rows()) return false;
  for (const std::uint32_t seed : seeds) {
    if (!std::binary_search(reachable.begin(), reachable.end(), seed)) {
      return false;
    }
  }
  return true;
}

std::uint64_t gather_plan_key(const linalg::CsrMatrix& generator, double rate,
                              std::span<const std::uint32_t> seeds) {
  const std::span<const std::uint32_t> row_ptr = generator.row_pointers();
  const std::span<const std::uint32_t> col_idx = generator.column_indices();
  const std::span<const double> values = generator.values();
  const std::uint64_t rows = generator.rows();
  std::uint64_t key = fnv1a64(&rows, sizeof(rows));
  key = fnv1a64(row_ptr.data(), row_ptr.size_bytes(), key);
  key = fnv1a64(col_idx.data(), col_idx.size_bytes(), key);
  key = fnv1a64(values.data(), values.size_bytes(), key);
  key = fnv1a64(&rate, sizeof(rate), key);
  key = fnv1a64(seeds.data(), seeds.size_bytes(), key);
  return key;
}

std::shared_ptr<const CachedGatherPlan> GatherPlanCache::obtain(
    const linalg::CsrMatrix& generator, double rate,
    std::span<const std::uint32_t> seeds) {
  const std::uint64_t key = gather_plan_key(generator, rate, seeds);
  {
    common::MutexLock lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end() && it->second->serves(generator, seeds)) {
      ++reused_;
      return it->second;
    }
  }
  // Build outside the lock: plan construction walks the whole generator,
  // and concurrent lanes building distinct chains must not serialise.
  std::shared_ptr<const CachedGatherPlan> built =
      build_cached_gather_plan(generator, rate, seeds);
  common::MutexLock lock(mutex_);
  std::shared_ptr<const CachedGatherPlan>& slot = entries_[key];
  if (slot && slot->serves(generator, seeds)) {
    // A racing lane inserted first; adopt its copy (byte-identical --
    // the build is deterministic).
    ++reused_;
    return slot;
  }
  slot = built;
  ++built_;
  return built;
}

std::uint64_t GatherPlanCache::plans_built() const {
  common::MutexLock lock(mutex_);
  return built_;
}

std::uint64_t GatherPlanCache::plans_reused() const {
  common::MutexLock lock(mutex_);
  return reused_;
}

}  // namespace kibamrm::engine
