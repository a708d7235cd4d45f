#include "kibamrm/linalg/shard_plan.hpp"

#include <algorithm>

#include "kibamrm/common/error.hpp"
#include "kibamrm/linalg/csr_matrix.hpp"

namespace kibamrm::linalg {

std::vector<std::size_t> entry_scaled_cut_bounds(
    std::span<const std::uint32_t> counts, std::size_t target_bytes,
    std::size_t header_bytes) {
  KIBAMRM_REQUIRE(target_bytes >= 1,
                  "entry_scaled_cut_bounds: target must be positive");
  const std::size_t n = counts.size();
  std::vector<std::size_t> bounds = {0};
  std::uint64_t payload = 0;
  std::uint64_t tile_entries = 0;
  for (std::size_t j = 0; j < n; ++j) {
    payload += entry_scaled_row_bytes(counts[j]);
    tile_entries += counts[j];
    // The dictionary holds distinct doubles, so it can never exceed 8
    // bytes per entry; the allowance grows with the tile's entry count
    // up to a 4KB cap (512 distinct values covers the handful of
    // distinct rates a battery chain produces) -- a flat pre-charge
    // would make small targets degenerate to one row per tile.
    const std::uint64_t dict_allowance =
        8 * std::min<std::uint64_t>(tile_entries, 512);
    const std::uint64_t estimate = header_bytes + payload + dict_allowance;
    if (estimate >= target_bytes && j + 1 < n) {
      bounds.push_back(j + 1);
      payload = 0;
      tile_entries = 0;
    }
  }
  bounds.push_back(n);
  return bounds;
}

std::vector<std::size_t> balanced_count_ranges(
    std::span<const std::uint32_t> counts, std::size_t row_begin,
    std::size_t row_end, std::size_t parts) {
  KIBAMRM_REQUIRE(parts > 0, "balanced_count_ranges: parts must be positive");
  KIBAMRM_REQUIRE(row_begin <= row_end && row_end <= counts.size(),
                  "balanced_count_ranges: row range out of bounds");
  // Weight each row by entries + 1 (the entry-scaled byte estimate is
  // 4 * (entries + 1), so the proportions -- and therefore the cuts --
  // are identical): the +1 charges the unconditional output write, the
  // same policy as CsrMatrix::balanced_row_ranges.
  std::vector<std::size_t> ranges = {row_begin};
  double outstanding = 0.0;
  for (std::size_t row = row_begin; row < row_end; ++row) {
    outstanding += static_cast<double>(counts[row]) + 1.0;
  }
  double carried = 0.0;
  for (std::size_t row = row_begin; row < row_end; ++row) {
    carried += static_cast<double>(counts[row]) + 1.0;
    // Close the current range once it holds its fair share of the weight
    // still outstanding (recomputed after every split, so one huge row
    // cannot starve the later ranges), never creating more ranges than
    // rows remain.
    const std::size_t open = ranges.size();
    const double fair_share =
        outstanding / static_cast<double>(parts - open + 1);
    if (open < parts && carried >= fair_share &&
        row_end - row - 1 >= parts - open) {
      ranges.push_back(row + 1);
      outstanding -= carried;
      carried = 0.0;
    }
  }
  ranges.push_back(row_end);
  return ranges;
}

ShardPlan ShardPlan::build(std::span<const std::uint32_t> counts,
                           std::span<const std::uint32_t> col_lo,
                           std::span<const std::uint32_t> col_hi,
                           std::size_t shards, std::size_t row_align) {
  KIBAMRM_REQUIRE(shards > 0, "shard plan: shard count must be positive");
  KIBAMRM_REQUIRE(row_align > 0, "shard plan: row alignment must be positive");
  KIBAMRM_REQUIRE(
      col_lo.size() == counts.size() && col_hi.size() == counts.size(),
      "shard plan: footprint arrays must match the row count");
  const std::size_t n = counts.size();
  std::vector<std::size_t> bounds =
      balanced_count_ranges(counts, 0, n, shards);
  if (row_align > 1) {
    for (std::size_t i = 1; i + 1 < bounds.size(); ++i) {
      const std::size_t down = bounds[i] / row_align * row_align;
      const std::size_t up = down + row_align;
      bounds[i] = std::min(n, bounds[i] - down < up - bounds[i] ? down : up);
    }
    // Snapped edges may collapse onto each other or onto the ends; the
    // missing bands come back as trailing empty ones below.
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    if (bounds.size() < 2) bounds.push_back(n);
  }

  ShardPlan plan;
  plan.bands_.reserve(shards);
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    ShardBand band;
    band.row_begin = bounds[b];
    band.row_end = bounds[b + 1];
    bool any = false;
    std::size_t lo = 0;
    std::size_t hi = 0;
    for (std::size_t r = band.row_begin; r < band.row_end; ++r) {
      band.nonzeros += counts[r];
      if (counts[r] == 0) continue;
      if (!any) {
        lo = col_lo[r];
        hi = static_cast<std::size_t>(col_hi[r]) + 1;
        any = true;
      } else {
        lo = std::min<std::size_t>(lo, col_lo[r]);
        hi = std::max<std::size_t>(hi, static_cast<std::size_t>(col_hi[r]) + 1);
      }
    }
    band.col_begin = any ? lo : band.row_begin;
    band.col_end = any ? hi : band.row_begin;
    plan.bands_.push_back(band);
  }
  // Chains with fewer rows than shards: pad with empty trailing bands so
  // the worker topology is independent of the chain (every worker forks,
  // runs the protocol, and contributes a zero delta).
  while (plan.bands_.size() < shards) {
    ShardBand band;
    band.row_begin = n;
    band.row_end = n;
    band.col_begin = n;
    band.col_end = n;
    plan.bands_.push_back(band);
  }

  // Pairwise halo spans: rows of `source` inside `dest`'s footprint.
  // The footprint is the contiguous hull of the band's column interval
  // -- conservative for a band with interior gaps, but battery chains
  // are banded, so the hull is tight in practice and the precomputation
  // stays O(shards^2).
  for (std::size_t dest = 0; dest < plan.bands_.size(); ++dest) {
    const ShardBand& d = plan.bands_[dest];
    if (d.col_begin >= d.col_end) continue;
    for (std::size_t source = 0; source < plan.bands_.size(); ++source) {
      if (source == dest) continue;
      const ShardBand& s = plan.bands_[source];
      const std::size_t lo = std::max(d.col_begin, s.row_begin);
      const std::size_t hi = std::min(d.col_end, s.row_end);
      if (lo < hi) {
        plan.halos_.push_back(HaloSpan{source, dest, lo, hi});
      }
    }
  }
  return plan;
}

ShardPlan ShardPlan::build(const CsrMatrix& transposed, std::size_t shards) {
  const std::size_t n = transposed.rows();
  const std::span<const std::uint32_t> row_ptr = transposed.row_pointers();
  const std::span<const std::uint32_t> col_idx = transposed.column_indices();
  std::vector<std::uint32_t> counts(n, 0);
  std::vector<std::uint32_t> col_lo(n, 0);
  std::vector<std::uint32_t> col_hi(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    counts[r] = row_ptr[r + 1] - row_ptr[r];
    if (counts[r] > 0) {
      // CSR columns are sorted, so the row's footprint is its first and
      // last stored column.
      col_lo[r] = col_idx[row_ptr[r]];
      col_hi[r] = col_idx[row_ptr[r + 1] - 1];
    }
  }
  return build(counts, col_lo, col_hi, shards);
}

std::vector<HaloSpan> ShardPlan::spans_from(std::size_t source) const {
  std::vector<HaloSpan> spans;
  for (const HaloSpan& span : halos_) {
    if (span.source == source) spans.push_back(span);
  }
  return spans;
}

std::vector<HaloSpan> ShardPlan::spans_to(std::size_t dest) const {
  std::vector<HaloSpan> spans;
  for (const HaloSpan& span : halos_) {
    if (span.dest == dest) spans.push_back(span);
  }
  return spans;
}

double ShardPlan::nnz_imbalance() const {
  std::uint64_t total = 0;
  std::uint64_t peak = 0;
  for (const ShardBand& band : bands_) {
    total += band.nonzeros;
    peak = std::max(peak, band.nonzeros);
  }
  if (total == 0 || bands_.empty()) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(bands_.size());
  return static_cast<double>(peak) / mean;
}

std::uint64_t ShardPlan::halo_bytes_per_step() const {
  std::uint64_t bytes = 0;
  for (const HaloSpan& span : halos_) {
    bytes += static_cast<std::uint64_t>(span.rows()) * sizeof(double);
  }
  return bytes;
}

}  // namespace kibamrm::linalg
