// Level-banded shard partitioning for the multi-process sharded backend.
//
// The expanded battery chain is banded in the charge-level grid: after
// reachable-closure compaction and (optionally) level reordering, the
// compacted transpose's rows group naturally into contiguous level bands.
// Two consumers partition those rows today and must agree on the weight
// model:
//
//   * linalg::TileStore cuts the transpose into spill slabs once the
//     estimated serialized size (per-row entry-table slot + 4 bytes per
//     entry + a capped dictionary allowance) reaches the tile target --
//     the entry-scaled cut estimator, factored out here as
//     entry_scaled_cut_bounds() so the spill format and the shard
//     partition cannot drift.
//
//   * ShardPlan splits the same rows into exactly N contiguous bands of
//     near-equal entry-scaled weight (the fair-share walk of
//     CsrMatrix::balanced_row_ranges over the same per-row byte
//     estimate), one band per worker process of the sharded engine.
//
// Beyond the bands themselves, ShardPlan precomputes everything the halo
// exchange needs *before* the coordinator forks: each band's column
// footprint (the contiguous x-index interval its gather reads) and the
// pairwise halo spans -- rows owned by band s that band d's entries read.
// Per DTMC step a worker then sends exactly its owned spans and receives
// exactly its footprint's foreign rows; halo_bytes_per_step() is the
// static per-step exchange volume the bench telemetry reports.
//
// Partitioning never touches arithmetic: per-row gather results are
// partition-independent, so any band layout yields bitwise-identical
// curves (the sharded-vs-parallel identity tests pin this down).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace kibamrm::linalg {

class CsrMatrix;

/// Estimated serialized bytes of one encoded row with `entries` stored
/// entries: one uint32 entry-table slot plus 4 bytes per entry -- the
/// row-weight unit shared by the TileStore slab cuts and the shard
/// partition.
inline std::uint64_t entry_scaled_row_bytes(std::uint32_t entries) {
  return 4 + static_cast<std::uint64_t>(entries) * 4;
}

/// TileStore's cut policy over per-row entry counts: walk the rows,
/// accumulate entry_scaled_row_bytes plus a dictionary allowance of
/// 8 * min(entries_so_far, 512) bytes, and cut once header_bytes + the
/// running estimate reaches target_bytes.  Returns the bounds including
/// 0 and counts.size(); never cuts after the last row.
std::vector<std::size_t> entry_scaled_cut_bounds(
    std::span<const std::uint32_t> counts, std::size_t target_bytes,
    std::size_t header_bytes);

/// Fair-share split of rows [row_begin, row_end) into at most `parts`
/// contiguous ranges of near-equal weight, each row weighted
/// counts[row] + 1 (the +1 charges the unconditional output write) --
/// the same walk as CsrMatrix::balanced_row_ranges, usable without a
/// materialised matrix (the plan cache keeps only the counts).  Returns
/// boundaries with front() == row_begin and back() == row_end.
std::vector<std::size_t> balanced_count_ranges(
    std::span<const std::uint32_t> counts, std::size_t row_begin,
    std::size_t row_end, std::size_t parts);

/// One worker's contiguous row band plus its gather footprint.
struct ShardBand {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  /// Stored entries inside the band (the load-balance unit).
  std::uint64_t nonzeros = 0;
  /// Column footprint [col_begin, col_end): the x entries the band's
  /// rows read.  Empty (col_begin == col_end) for an entry-less band.
  std::size_t col_begin = 0;
  std::size_t col_end = 0;

  std::size_t rows() const { return row_end - row_begin; }
};

/// Rows [begin, end) owned by band `source` that band `dest`'s gather
/// reads -- one per-step halo frame on the source -> dest channel.
struct HaloSpan {
  std::size_t source = 0;
  std::size_t dest = 0;
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t rows() const { return end - begin; }
};

class ShardPlan {
 public:
  /// Partitions `rows` rows into exactly `shards` bands balanced by
  /// entry-scaled weight and derives halo spans from the per-row column
  /// footprints [col_lo[r], col_hi[r]] (inclusive; ignored for rows with
  /// counts[r] == 0).  With `row_align` > 1 every interior band edge is
  /// moved to the nearest multiple of it (the sharded engine cuts at the
  /// mass window's chunk edges, so each chunk has one owner).  Chains
  /// with fewer rows -- or aligned cuts -- than shards get trailing empty
  /// bands, so N workers always fork.
  static ShardPlan build(std::span<const std::uint32_t> counts,
                         std::span<const std::uint32_t> col_lo,
                         std::span<const std::uint32_t> col_hi,
                         std::size_t shards, std::size_t row_align = 1);

  /// Convenience overload deriving counts and footprints from a
  /// materialised (transposed) matrix.
  static ShardPlan build(const CsrMatrix& transposed, std::size_t shards);

  std::size_t shard_count() const { return bands_.size(); }
  const std::vector<ShardBand>& bands() const { return bands_; }
  const std::vector<HaloSpan>& halo_spans() const { return halos_; }

  /// Halo spans with the given source or destination band.
  std::vector<HaloSpan> spans_from(std::size_t source) const;
  std::vector<HaloSpan> spans_to(std::size_t dest) const;

  /// max/mean stored entries across non-empty bands (1.0 when balanced
  /// or empty) -- the shard_nnz_imbalance bench metric.
  double nnz_imbalance() const;

  /// Static per-step exchange volume: 8 bytes per halo row summed over
  /// every span (each span is one frame per DTMC step).
  std::uint64_t halo_bytes_per_step() const;

 private:
  std::vector<ShardBand> bands_;
  std::vector<HaloSpan> halos_;
};

}  // namespace kibamrm::linalg
