// Out-of-core tile store for the uniformisation hot path.
//
// Every in-memory uniformisation backend materialises P = I + Q/q, the
// reachable-closure compaction and the transposed gather structure before
// the power iteration starts -- three matrix-sized allocations live at
// once, which is exactly what caps the reachable Delta.  TileStore breaks
// that ceiling: it partitions the compacted transposed P into contiguous
// row bands ("tiles"), ENCODES EACH BAND DIRECTLY FROM THE GENERATOR
// (uniformise + transpose + compact on the fly, band-limited scans -- the
// full P, its transpose and the gather plan are never resident), writes
// each tile as a self-contained checksummed slab to a spill file, and
// streams the slabs back per uniformisation step.
//
// Bitwise contract.  The tile kernel (multiply_fused_tile) reproduces the
// canonical per-length evaluation order of linalg::FusedGatherPlan /
// CsrMatrix::multiply_fused_range term for term, and the streaming band
// build reproduces CsrMatrix::uniformized + transposed_submatrix entry
// for entry (same value arithmetic, same zero-dropping, same diagonal
// clamp, same entry order).  Tiling therefore never changes a bit: the
// ooc backend's curves are bitwise identical to the in-memory fused
// backend at every tile size, thread count and shard partition.
//
// Slab encodings (chosen per tile, narrowest that fits):
//   kDict16Off16   uint16 dictionary ids + int16 (col - row) offsets --
//                  the level-banded battery chains
//   kDict16Off32   int32 offsets for tiles whose band escapes int16
//   kInlineOff32   raw doubles per entry for tiles with > 65536 distinct
//                  values (no dictionary); always representable
//
// File layout: fixed header, 4096-aligned slabs, tile index at the end
// (offset patched into the header after the last slab).  Every slab and
// the index carry FNV-1a checksums; open() and first read validate, so a
// corrupt or truncated spill file surfaces as kibamrm::Error before any
// kernel dereferences a damaged offset.  The format is process-local
// scratch (native endianness), not an interchange format -- but it is
// deliberately self-contained per tile, which is the shape a persistent
// cross-request plan cache (ROADMAP item 1) needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kibamrm/common/spill_io.hpp"
#include "kibamrm/linalg/csr_matrix.hpp"

namespace kibamrm::linalg {

struct TileStoreOptions {
  /// Serialized-size target per tile; the build cuts a tile once its
  /// estimated slab reaches this many bytes (>= 1; a huge value yields a
  /// single resident tile, degenerating to in-memory streaming).
  std::size_t tile_bytes = 8ull << 20;
};

/// Structure counters gathered during the streaming build (the ooc
/// analogue of linalg::structure_stats on the in-memory transpose).
struct TileBuildStats {
  std::uint64_t bandwidth = 0;       ///< max |col - row| in compact space
  std::uint64_t diagonal_rows = 0;   ///< rows repeating the previous row's
                                     ///< offset pattern (diagonal runs)
  std::uint64_t longest_diagonal_run = 0;
};

class TileStore {
 public:
  /// Builds the tile store for the compacted transposed uniformised
  /// matrix of `generator` (P = I + generator/rate restricted to the
  /// sorted reachable closure `keep`), writing slabs to `path`.  Streams
  /// band by band: peak transient memory is O(states) index arrays plus
  /// one tile's entries, never the full P or its transpose.
  static TileStore build(const CsrMatrix& generator,
                         std::span<const std::uint32_t> keep, double rate,
                         const TileStoreOptions& options,
                         const std::string& path);

  /// Opens an existing store read-only and validates header + index
  /// checksums; slab payloads validate on first read.
  static TileStore open(const std::string& path);

  TileStore(TileStore&&) = default;
  TileStore& operator=(TileStore&&) = default;

  std::size_t rows() const { return rows_; }
  std::size_t nonzeros() const { return nonzeros_; }
  std::size_t tile_count() const { return tiles_.size(); }
  std::size_t tile_row_begin(std::size_t tile) const {
    return tiles_[tile].row_begin;
  }
  std::size_t tile_row_end(std::size_t tile) const {
    return tiles_[tile].row_end;
  }
  std::size_t tile_entries(std::size_t tile) const {
    return tiles_[tile].entries;
  }
  std::size_t tile_slab_bytes(std::size_t tile) const {
    return tiles_[tile].slab_bytes;
  }
  /// Largest slab_bytes over all tiles (stream-buffer sizing).
  std::size_t max_slab_bytes() const { return max_slab_bytes_; }
  /// Total slab bytes on disk (excluding header/index/padding).
  std::uint64_t payload_bytes() const { return payload_bytes_; }
  /// Full spill-file size including header, padding and index.
  std::uint64_t file_bytes() const { return file_.size(); }
  const TileBuildStats& build_stats() const { return build_stats_; }

  /// Reads tile `tile` into `buffer` (resized to the slab).  The first
  /// read of each tile verifies its checksum and structural invariants
  /// (entry counts, offset bounds, dictionary ids); corruption throws
  /// kibamrm::Error.  Later re-reads of a validated tile skip the scan --
  /// the stream loop reads every tile every uniformisation step, and a
  /// per-step checksum pass would cost as much as the kernel itself.
  void read_tile(std::size_t tile, common::AlignedBuffer& buffer);

  /// Readahead hint for an upcoming read_tile.
  void prefetch_tile(std::size_t tile) const;

  /// Fused uniformisation step over local rows [local_begin, local_end)
  /// of a loaded slab: out[row] = dot(row, x), accum[row] += weight *
  /// out[row] (skipped when weight == 0), returns max |out[row] -
  /// x[row]| over the range -- bitwise identical to
  /// FusedGatherPlan::multiply_fused_range on the same rows of the
  /// in-memory compacted transpose.  Disjoint local ranges write
  /// disjoint entries, so ranges shard across threads freely.
  double multiply_fused_tile(std::size_t tile,
                             const common::AlignedBuffer& slab,
                             const std::vector<double>& x,
                             std::vector<double>& out,
                             std::vector<double>& accum, double weight,
                             std::size_t local_begin,
                             std::size_t local_end) const;

  /// Splits tile `tile`'s local rows into at most `parts` entry-balanced
  /// ranges (boundaries in local row units, first 0, last = tile rows).
  /// Requires the tile to have been read at least once (the per-row
  /// entry table lives in the slab).
  std::vector<std::size_t> balanced_tile_ranges(
      std::size_t tile, const common::AlignedBuffer& slab,
      std::size_t parts) const;

  /// Unlinks the spill file while keeping it readable (space reclaims
  /// when the store is destroyed, even on abnormal exit).
  void unlink_keeping_open() { file_.unlink_keeping_open(); }

 private:
  enum class Encoding : std::uint32_t {
    kDict16Off16 = 0,
    kDict16Off32 = 1,
    kInlineOff32 = 2,
  };

  struct TileInfo {
    std::uint64_t file_offset = 0;  // 4096-aligned
    std::uint64_t slab_bytes = 0;
    std::uint64_t row_begin = 0;
    std::uint64_t row_end = 0;
    std::uint64_t entries = 0;
    std::uint64_t checksum = 0;
  };

  /// Parsed view of one slab; all pointers alias the read buffer.
  struct SlabView {
    Encoding encoding;
    std::size_t rows = 0;
    std::size_t entries = 0;
    std::size_t dict_size = 0;
    const std::uint32_t* entry_start = nullptr;  // rows + 1
    const double* dictionary = nullptr;          // dict encodings
    const double* inline_values = nullptr;       // kInlineOff32
    const std::uint16_t* ids = nullptr;          // dict encodings
    const std::int16_t* offsets16 = nullptr;     // kDict16Off16
    const std::int32_t* offsets32 = nullptr;     // wider encodings
  };

  TileStore() = default;

  SlabView parse_slab(std::size_t tile, const std::byte* slab,
                      std::size_t slab_bytes) const;
  void validate_slab(std::size_t tile, const SlabView& view) const;
  void load_index();

  common::SpillFile file_;
  std::size_t rows_ = 0;
  std::uint64_t nonzeros_ = 0;
  std::vector<TileInfo> tiles_;
  std::vector<std::uint8_t> validated_;  // per-tile first-read flag
  std::size_t max_slab_bytes_ = 0;
  std::uint64_t payload_bytes_ = 0;
  TileBuildStats build_stats_;
};

/// Reachable closure of `seeds` over exactly the sparsity pattern of
/// P = I + generator/rate (generator entries whose scaled value
/// underflows to zero are skipped, matching uniformized()'s zero drop),
/// sorted ascending -- bitwise equal to
/// generator.uniformized(rate).reachable_rows(seeds) without ever
/// materialising P.
std::vector<std::uint32_t> tile_store_reachable_rows(
    const CsrMatrix& generator, std::span<const std::uint32_t> seeds,
    double rate);

}  // namespace kibamrm::linalg
