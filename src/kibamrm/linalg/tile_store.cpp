#include "kibamrm/linalg/tile_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "kibamrm/common/error.hpp"
#include "kibamrm/linalg/shard_plan.hpp"

namespace kibamrm::linalg {

namespace {

constexpr char kMagic[8] = {'K', 'B', 'R', 'M', 'T', 'S', 'P', '1'};
constexpr std::size_t kFileAlign = 4096;

/// On-disk file header at offset 0, patched after the last slab.  The
/// spill format is process-local scratch: native endianness, no padding
/// surprises (every field is 8 bytes past the magic).
struct FileHeader {
  char magic[8];
  std::uint64_t rows;
  std::uint64_t nonzeros;
  std::uint64_t tile_count;
  std::uint64_t index_offset;
  std::uint64_t bandwidth;
  std::uint64_t diagonal_rows;
  std::uint64_t longest_diagonal_run;
  std::uint64_t index_checksum;
  std::uint64_t header_checksum;  // fnv1a64 of every preceding byte
};
static_assert(sizeof(FileHeader) == 80);

/// Per-slab header; arrays follow at the byte offsets it names, in
/// decreasing alignment order (doubles, uint32, int32/int16, uint16) so
/// every pointer into the slab is naturally aligned.
struct SlabHeader {
  std::uint32_t encoding;
  std::uint32_t reserved;
  std::uint64_t rows;
  std::uint64_t entries;
  std::uint64_t dict_size;     // 0 for the inline encoding
  std::uint64_t values_off;    // dictionary or inline values (doubles)
  std::uint64_t entry_start_off;
  std::uint64_t offsets_off;
  std::uint64_t ids_off;       // 0 when the encoding carries no ids
  std::uint64_t total_bytes;   // == TileInfo::slab_bytes
};
static_assert(sizeof(SlabHeader) == 72);

std::uint64_t round_up(std::uint64_t value, std::uint64_t align) {
  return (value + align - 1) / align * align;
}

/// The canonical fused uniformisation step over one slab's rows, shared
/// by all three encodings through `value_at(e)`.  Term order per row
/// length mirrors CsrMatrix::multiply_fused_range and
/// FusedGatherPlan::fused_rows_generic exactly -- see the bitwise
/// contract in the header.
template <typename Offset, typename ValueAt>
double fused_tile_rows(const std::uint32_t* entry_start,
                       const Offset* offsets, ValueAt value_at,
                       std::size_t global_base, const double* x, double* out,
                       double* accum, double weight, std::size_t local_begin,
                       std::size_t local_end) {
  double delta = 0.0;
  for (std::size_t local = local_begin; local < local_end; ++local) {
    const std::size_t row = global_base + local;
    const std::uint32_t b = entry_start[local];
    const std::uint32_t e = entry_start[local + 1];
    const auto term = [&](std::uint32_t k) {
      return value_at(k) *
             x[static_cast<std::size_t>(
                 static_cast<std::int64_t>(row) + offsets[k])];
    };
    double v;
    switch (e - b) {
      case 0:
        v = 0.0;
        break;
      case 1:
        v = term(b);
        break;
      case 2:
        v = term(b) + term(b + 1);
        break;
      case 3:
        v = term(b) + term(b + 1) + term(b + 2);
        break;
      case 4:
        v = (term(b) + term(b + 1)) + (term(b + 2) + term(b + 3));
        break;
      default: {
        double s0 = 0.0;
        double s1 = 0.0;
        std::uint32_t k = b;
        for (; k + 2 <= e; k += 2) {
          s0 += term(k);
          s1 += term(k + 1);
        }
        if (k < e) s0 += term(k);
        v = s0 + s1;
      }
    }
    out[row] = v;
    if (weight != 0.0) accum[row] += weight * v;
    delta = std::max(delta, std::abs(v - x[row]));
  }
  return delta;
}

/// Streams the rows of P = I + Q/rate restricted to the closure without
/// materialising P: calls emit(compact_col, value) in ascending column
/// order for compact row `i`, reproducing CsrMatrix::uniformized (zero
/// drop before merge, diagonal merge, [0,1] diagonal clamp) followed by
/// transposed_submatrix's zero-entry drop, entry for entry.
class UniformizedRowStream {
 public:
  UniformizedRowStream(const CsrMatrix& generator,
                       std::span<const std::uint32_t> keep, double rate)
      : row_ptr_(generator.row_pointers()),
        col_idx_(generator.column_indices()),
        values_(generator.values()),
        keep_(keep),
        rate_(rate),
        compact_(generator.rows(), kDropped) {
    for (std::size_t i = 0; i < keep.size(); ++i) {
      KIBAMRM_REQUIRE(keep[i] < generator.rows() &&
                          (i == 0 || keep[i] > keep[i - 1]),
                      "tile store: keep must be sorted, unique and in range");
      compact_[keep[i]] = static_cast<std::uint32_t>(i);
    }
  }

  template <typename Emit>
  void for_each_entry(std::size_t i, Emit&& emit) const {
    const std::uint32_t r = keep_[i];
    // Diagonal of P: the COO pass adds (r, r, 1.0) plus values[k]/rate
    // per stored entry; add() drops exact zeros before the merge, the
    // merge drops an exactly-zero sum, and uniformized() clamps the
    // surviving diagonal into [0, 1].
    double diagonal = 1.0;
    for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (col_idx_[k] == r) {
        const double scaled = values_[k] / rate_;
        if (scaled != 0.0) diagonal += scaled;
        break;
      }
    }
    bool diagonal_kept = diagonal != 0.0;
    if (diagonal_kept) {
      diagonal = std::clamp(diagonal, 0.0, 1.0);
      // transposed_submatrix rebuilds through a CooBuilder, whose add()
      // drops a diagonal clamped to exactly 0.
      diagonal_kept = diagonal != 0.0;
    }
    bool diagonal_emitted = false;
    for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::uint32_t col = col_idx_[k];
      if (col == r) {
        if (diagonal_kept) emit(i, diagonal);
        diagonal_emitted = true;
        continue;
      }
      if (!diagonal_emitted && col > r) {
        if (diagonal_kept) emit(i, diagonal);
        diagonal_emitted = true;
      }
      const double scaled = values_[k] / rate_;
      if (scaled == 0.0) continue;
      const std::uint32_t compact_col = compact_[col];
      if (compact_col == kDropped) continue;
      emit(compact_col, scaled);
    }
    if (!diagonal_emitted && diagonal_kept) emit(i, diagonal);
  }

  /// Reachable closure over exactly P's sparsity pattern: the BFS skips
  /// generator entries whose scaled value underflows to zero (they never
  /// make it into P), so the closure matches
  /// uniformized(rate).reachable_rows(seeds) bit for bit.
  static std::vector<std::uint32_t> reachable_rows(
      const CsrMatrix& generator, std::span<const std::uint32_t> seeds,
      double rate) {
    const auto row_ptr = generator.row_pointers();
    const auto col_idx = generator.column_indices();
    const auto values = generator.values();
    std::vector<std::uint8_t> seen(generator.rows(), 0);
    std::vector<std::uint32_t> frontier;
    frontier.reserve(seeds.size());
    for (const std::uint32_t seed : seeds) {
      KIBAMRM_REQUIRE(seed < generator.rows(),
                      "tile store: seed out of range");
      if (!seen[seed]) {
        seen[seed] = 1;
        frontier.push_back(seed);
      }
    }
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const std::uint32_t row = frontier[head];
      for (std::uint32_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
        const std::uint32_t col = col_idx[k];
        if (!seen[col] && values[k] / rate != 0.0) {
          seen[col] = 1;
          frontier.push_back(col);
        }
      }
    }
    std::sort(frontier.begin(), frontier.end());
    return frontier;
  }

 private:
  static constexpr std::uint32_t kDropped =
      std::numeric_limits<std::uint32_t>::max();
  std::span<const std::uint32_t> row_ptr_;
  std::span<const std::uint32_t> col_idx_;
  std::span<const double> values_;
  std::span<const std::uint32_t> keep_;
  double rate_;
  std::vector<std::uint32_t> compact_;
};

}  // namespace

TileStore TileStore::build(const CsrMatrix& generator,
                           std::span<const std::uint32_t> keep, double rate,
                           const TileStoreOptions& options,
                           const std::string& path) {
  KIBAMRM_REQUIRE(generator.rows() == generator.cols(),
                  "tile store: generator must be square");
  KIBAMRM_REQUIRE(!keep.empty(), "tile store: empty reachable closure");
  KIBAMRM_REQUIRE(rate > 0.0, "tile store: rate must be positive");
  KIBAMRM_REQUIRE(options.tile_bytes >= 1,
                  "tile store: tile_bytes must be positive");
  const std::size_t n = keep.size();
  KIBAMRM_REQUIRE(
      n <= static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()),
      "tile store: closure exceeds the int32 offset range");

  const UniformizedRowStream stream(generator, keep, rate);

  // Pass A: per-transpose-row entry counts, the compact bandwidth and
  // the total entry count -- O(states) of index arrays, no matrix copy.
  std::vector<std::uint32_t> counts(n, 0);
  std::uint64_t total_entries = 0;
  std::uint64_t bandwidth = 0;
  for (std::size_t i = 0; i < n; ++i) {
    stream.for_each_entry(i, [&](std::uint32_t transpose_row, double) {
      ++counts[transpose_row];
      ++total_entries;
      const std::uint64_t distance =
          transpose_row > i
              ? transpose_row - i
              : static_cast<std::uint64_t>(i) - transpose_row;
      bandwidth = std::max(bandwidth, distance);
    });
  }

  // Tile boundaries: the entry-scaled cut estimator shared with the
  // sharded backend's band partition (linalg/shard_plan.hpp) cuts once
  // the estimated slab size -- header + entry table + 4 bytes per entry
  // + the capped dictionary allowance -- reaches the target.  The
  // estimate assumes the narrow encoding; a tile forced into a wider
  // one simply overshoots the target, it never breaks.
  const std::vector<std::size_t> tile_bounds =
      entry_scaled_cut_bounds(counts, options.tile_bytes, sizeof(SlabHeader));
  const std::size_t tile_count = tile_bounds.size() - 1;

  common::SpillFile file = common::SpillFile::create(path);
  std::vector<TileInfo> tiles(tile_count);
  std::uint64_t cursor = kFileAlign;  // header occupies block 0

  // Diagonal-run structure stats, computed on the fly over the transpose
  // rows in order (a run = consecutive rows repeating the same offset
  // pattern; on a level-banded chain these are the rows a
  // band-sliding kernel could stream without re-decoding).
  std::vector<std::int32_t> previous_offsets;
  bool have_previous = false;
  std::uint64_t diagonal_rows = 0;
  std::uint64_t longest_diagonal_run = 0;
  std::uint64_t current_run = 1;

  // Pass B: one band-limited scan per tile.  Rows contributing entries
  // to transpose rows [c0, c1) lie within bandwidth of the band, so each
  // scan touches O(tile + band) source rows, not the whole chain.
  std::vector<std::uint32_t> local_start;
  std::vector<std::uint32_t> fill;
  std::vector<std::uint32_t> entry_cols;
  std::vector<double> entry_vals;
  std::vector<std::byte> slab;
  std::unordered_map<double, std::uint32_t> dictionary_ids;
  std::vector<double> dictionary;
  for (std::size_t t = 0; t < tile_count; ++t) {
    const std::size_t c0 = tile_bounds[t];
    const std::size_t c1 = tile_bounds[t + 1];
    const std::size_t tile_rows = c1 - c0;
    local_start.assign(tile_rows + 1, 0);
    for (std::size_t j = c0; j < c1; ++j) {
      local_start[j - c0 + 1] = local_start[j - c0] + counts[j];
    }
    const std::size_t tile_total = local_start[tile_rows];
    fill.assign(tile_rows, 0);
    entry_cols.resize(tile_total);
    entry_vals.resize(tile_total);

    const std::size_t scan_begin =
        c0 > bandwidth ? c0 - static_cast<std::size_t>(bandwidth) : 0;
    const std::size_t scan_end =
        std::min<std::size_t>(n, c1 + static_cast<std::size_t>(bandwidth));
    for (std::size_t i = scan_begin; i < scan_end; ++i) {
      stream.for_each_entry(i, [&](std::uint32_t transpose_row,
                                   double value) {
        if (transpose_row < c0 || transpose_row >= c1) return;
        const std::size_t local = transpose_row - c0;
        // i ascends across the scan, so each transpose row receives its
        // entries in ascending column order -- the CooBuilder sort order
        // of transposed_submatrix.
        const std::size_t slot = local_start[local] + fill[local]++;
        entry_cols[slot] = static_cast<std::uint32_t>(i);
        entry_vals[slot] = value;
      });
    }

    // Pick the narrowest encoding this tile fits.
    dictionary_ids.clear();
    dictionary.clear();
    bool dictionary_fits = true;
    for (const double value : entry_vals) {
      if (dictionary_ids.size() >= 65536 &&
          !dictionary_ids.contains(value)) {
        dictionary_fits = false;
        break;
      }
      const auto [it, inserted] = dictionary_ids.try_emplace(
          value, static_cast<std::uint32_t>(dictionary.size()));
      if (inserted) dictionary.push_back(value);
    }
    bool offsets_narrow = true;
    for (std::size_t local = 0; local < tile_rows; ++local) {
      const std::int64_t row = static_cast<std::int64_t>(c0 + local);
      for (std::size_t k = local_start[local]; k < local_start[local + 1];
           ++k) {
        const std::int64_t offset =
            static_cast<std::int64_t>(entry_cols[k]) - row;
        if (offset < std::numeric_limits<std::int16_t>::min() ||
            offset > std::numeric_limits<std::int16_t>::max()) {
          offsets_narrow = false;
          break;
        }
      }
      if (!offsets_narrow) break;
    }
    const Encoding encoding =
        !dictionary_fits
            ? Encoding::kInlineOff32
            : (offsets_narrow ? Encoding::kDict16Off16
                              : Encoding::kDict16Off32);

    // Serialize: header, doubles, entry table, offsets, ids.
    SlabHeader header{};
    header.encoding = static_cast<std::uint32_t>(encoding);
    header.rows = tile_rows;
    header.entries = tile_total;
    header.dict_size =
        encoding == Encoding::kInlineOff32 ? 0 : dictionary.size();
    std::uint64_t at = sizeof(SlabHeader);
    const std::uint64_t value_count = encoding == Encoding::kInlineOff32
                                          ? tile_total
                                          : dictionary.size();
    header.values_off = at;
    at += value_count * sizeof(double);
    header.entry_start_off = at;
    at += (tile_rows + 1) * sizeof(std::uint32_t);
    header.offsets_off = at;
    at += encoding == Encoding::kDict16Off16 ? tile_total * sizeof(std::int16_t)
                                             : tile_total * sizeof(std::int32_t);
    if (encoding == Encoding::kInlineOff32) {
      header.ids_off = 0;
    } else {
      at = round_up(at, alignof(std::uint16_t));
      header.ids_off = at;
      at += tile_total * sizeof(std::uint16_t);
    }
    header.total_bytes = at;

    slab.assign(at, std::byte{0});
    std::memcpy(slab.data(), &header, sizeof(header));
    auto* values_out =
        reinterpret_cast<double*>(slab.data() + header.values_off);
    auto* entry_start_out = reinterpret_cast<std::uint32_t*>(
        slab.data() + header.entry_start_off);
    for (std::size_t local = 0; local <= tile_rows; ++local) {
      entry_start_out[local] = local_start[local];
    }
    if (encoding == Encoding::kInlineOff32) {
      std::memcpy(values_out, entry_vals.data(),
                  tile_total * sizeof(double));
    } else {
      std::memcpy(values_out, dictionary.data(),
                  dictionary.size() * sizeof(double));
      auto* ids_out =
          reinterpret_cast<std::uint16_t*>(slab.data() + header.ids_off);
      for (std::size_t k = 0; k < tile_total; ++k) {
        ids_out[k] = static_cast<std::uint16_t>(dictionary_ids[entry_vals[k]]);
      }
    }
    if (encoding == Encoding::kDict16Off16) {
      auto* offsets_out =
          reinterpret_cast<std::int16_t*>(slab.data() + header.offsets_off);
      for (std::size_t local = 0; local < tile_rows; ++local) {
        const std::int64_t row = static_cast<std::int64_t>(c0 + local);
        for (std::size_t k = local_start[local]; k < local_start[local + 1];
             ++k) {
          offsets_out[k] = static_cast<std::int16_t>(
              static_cast<std::int64_t>(entry_cols[k]) - row);
        }
      }
    } else {
      auto* offsets_out =
          reinterpret_cast<std::int32_t*>(slab.data() + header.offsets_off);
      for (std::size_t local = 0; local < tile_rows; ++local) {
        const std::int64_t row = static_cast<std::int64_t>(c0 + local);
        for (std::size_t k = local_start[local]; k < local_start[local + 1];
             ++k) {
          offsets_out[k] = static_cast<std::int32_t>(
              static_cast<std::int64_t>(entry_cols[k]) - row);
        }
      }
    }

    // Diagonal-run stats over this tile's rows (runs continue across
    // tile boundaries: previous_offsets carries over).
    for (std::size_t local = 0; local < tile_rows; ++local) {
      const std::int64_t row = static_cast<std::int64_t>(c0 + local);
      const std::size_t length = local_start[local + 1] - local_start[local];
      bool repeats = have_previous && previous_offsets.size() == length;
      if (repeats) {
        for (std::size_t e = 0; e < length; ++e) {
          if (previous_offsets[e] !=
              static_cast<std::int64_t>(
                  entry_cols[local_start[local] + e]) -
                  row) {
            repeats = false;
            break;
          }
        }
      }
      if (repeats) {
        ++diagonal_rows;
        ++current_run;
        longest_diagonal_run = std::max(longest_diagonal_run, current_run);
      } else {
        current_run = 1;
      }
      previous_offsets.resize(length);
      for (std::size_t e = 0; e < length; ++e) {
        previous_offsets[e] = static_cast<std::int32_t>(
            static_cast<std::int64_t>(entry_cols[local_start[local] + e]) -
            row);
      }
      have_previous = true;
    }

    file.write_exact(slab.data(), slab.size(), cursor);
    TileInfo& info = tiles[t];
    info.file_offset = cursor;
    info.slab_bytes = slab.size();
    info.row_begin = c0;
    info.row_end = c1;
    info.entries = tile_total;
    info.checksum = common::fnv1a64(slab.data(), slab.size());
    cursor = round_up(cursor + slab.size(), kFileAlign);
  }
  // Index after the last slab, then the header is patched in.
  const std::uint64_t index_offset = cursor;
  file.write_exact(tiles.data(), tiles.size() * sizeof(TileInfo),
                   index_offset);
  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.rows = n;
  header.nonzeros = total_entries;
  header.tile_count = tile_count;
  header.index_offset = index_offset;
  header.bandwidth = bandwidth;
  header.diagonal_rows = diagonal_rows;
  header.longest_diagonal_run = longest_diagonal_run;
  header.index_checksum =
      common::fnv1a64(tiles.data(), tiles.size() * sizeof(TileInfo));
  header.header_checksum = common::fnv1a64(
      &header, sizeof(FileHeader) - sizeof(std::uint64_t));
  file.write_exact(&header, sizeof(header), 0);
  file.sync();
  file.close();

  return open(path);
}

TileStore TileStore::open(const std::string& path) {
  TileStore store;
  store.file_ = common::SpillFile::open_readonly(path);
  const std::uint64_t file_size = store.file_.size();
  FileHeader header{};
  KIBAMRM_REQUIRE(file_size >= sizeof(FileHeader),
                  "tile store '" + path + "': file shorter than its header");
  store.file_.read_exact(&header, sizeof(header), 0);
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    throw Error("tile store '" + path + "': bad magic (not a tile spill "
                "file, or the header is corrupt)");
  }
  const std::uint64_t expected_header_checksum = common::fnv1a64(
      &header, sizeof(FileHeader) - sizeof(std::uint64_t));
  if (header.header_checksum != expected_header_checksum) {
    throw Error("tile store '" + path + "': header checksum mismatch");
  }
  const std::uint64_t index_bytes =
      header.tile_count * sizeof(TileInfo);
  if (header.index_offset > file_size ||
      index_bytes > file_size - header.index_offset) {
    throw Error("tile store '" + path + "': tile index out of bounds "
                "(truncated file?)");
  }
  store.tiles_.resize(header.tile_count);
  if (header.tile_count > 0) {
    store.file_.read_exact(store.tiles_.data(), index_bytes,
                           header.index_offset);
  }
  if (common::fnv1a64(store.tiles_.data(), index_bytes) !=
      header.index_checksum) {
    throw Error("tile store '" + path + "': tile index checksum mismatch");
  }
  store.rows_ = header.rows;
  store.nonzeros_ = header.nonzeros;
  store.build_stats_.bandwidth = header.bandwidth;
  store.build_stats_.diagonal_rows = header.diagonal_rows;
  store.build_stats_.longest_diagonal_run = header.longest_diagonal_run;
  std::uint64_t covered = 0;
  for (std::size_t t = 0; t < store.tiles_.size(); ++t) {
    const TileInfo& info = store.tiles_[t];
    if (info.row_begin != covered || info.row_end < info.row_begin ||
        info.row_end > store.rows_ ||
        (info.row_end == info.row_begin)) {
      throw Error("tile store '" + path +
                  "': tile index rows are not a contiguous partition");
    }
    covered = info.row_end;
    if (info.slab_bytes < sizeof(SlabHeader) ||
        info.file_offset % kFileAlign != 0 ||
        info.file_offset > file_size ||
        info.slab_bytes > file_size - info.file_offset) {
      throw Error("tile store '" + path +
                  "': tile slab out of file bounds (truncated file?)");
    }
    store.max_slab_bytes_ = std::max<std::size_t>(
        store.max_slab_bytes_, info.slab_bytes);
    store.payload_bytes_ += info.slab_bytes;
  }
  if (covered != store.rows_) {
    throw Error("tile store '" + path +
                "': tile index does not cover every row");
  }
  store.validated_.assign(store.tiles_.size(), 0);
  return store;
}

void TileStore::read_tile(std::size_t tile, common::AlignedBuffer& buffer) {
  KIBAMRM_REQUIRE(tile < tiles_.size(), "tile store: tile out of range");
  const TileInfo& info = tiles_[tile];
  buffer.resize(info.slab_bytes);
  file_.read_exact(buffer.data(), info.slab_bytes, info.file_offset);
  if (!validated_[tile]) {
    if (common::fnv1a64(buffer.data(), info.slab_bytes) != info.checksum) {
      throw Error("tile store '" + file_.path() + "': tile " +
                  std::to_string(tile) + " checksum mismatch (corrupt "
                  "spill file)");
    }
    const SlabView view = parse_slab(tile, buffer.data(), info.slab_bytes);
    validate_slab(tile, view);
    validated_[tile] = 1;
  }
}

void TileStore::prefetch_tile(std::size_t tile) const {
  KIBAMRM_REQUIRE(tile < tiles_.size(), "tile store: tile out of range");
  file_.advise_willneed(tiles_[tile].file_offset, tiles_[tile].slab_bytes);
}

TileStore::SlabView TileStore::parse_slab(std::size_t tile,
                                          const std::byte* slab,
                                          std::size_t slab_bytes) const {
  const TileInfo& info = tiles_[tile];
  const auto fail = [&](const char* what) -> void {
    throw Error("tile store '" + file_.path() + "': tile " +
                std::to_string(tile) + " slab invalid: " + what);
  };
  if (slab_bytes < sizeof(SlabHeader)) fail("shorter than its header");
  SlabHeader header;
  std::memcpy(&header, slab, sizeof(header));
  if (header.total_bytes != slab_bytes) fail("size field mismatch");
  if (header.rows != info.row_end - info.row_begin ||
      header.entries != info.entries) {
    fail("row/entry counts disagree with the tile index");
  }
  SlabView view;
  view.rows = header.rows;
  view.entries = header.entries;
  view.dict_size = header.dict_size;
  const auto span_ok = [&](std::uint64_t offset, std::uint64_t bytes,
                           std::uint64_t align) {
    return offset % align == 0 && offset <= slab_bytes &&
           bytes <= slab_bytes - offset;
  };
  switch (header.encoding) {
    case 0:
      view.encoding = Encoding::kDict16Off16;
      break;
    case 1:
      view.encoding = Encoding::kDict16Off32;
      break;
    case 2:
      view.encoding = Encoding::kInlineOff32;
      break;
    default:
      fail("unknown encoding");
  }
  const bool inline_values = view.encoding == Encoding::kInlineOff32;
  const std::uint64_t value_count =
      inline_values ? header.entries : header.dict_size;
  if (!span_ok(header.values_off, value_count * sizeof(double), 8)) {
    fail("value array out of slab bounds");
  }
  if (!span_ok(header.entry_start_off,
               (header.rows + 1) * sizeof(std::uint32_t), 4)) {
    fail("entry table out of slab bounds");
  }
  const std::uint64_t offset_width =
      view.encoding == Encoding::kDict16Off16 ? sizeof(std::int16_t)
                                              : sizeof(std::int32_t);
  if (!span_ok(header.offsets_off, header.entries * offset_width,
               offset_width)) {
    fail("offset array out of slab bounds");
  }
  if (!inline_values &&
      !span_ok(header.ids_off, header.entries * sizeof(std::uint16_t), 2)) {
    fail("id array out of slab bounds");
  }
  if (inline_values) {
    view.inline_values =
        reinterpret_cast<const double*>(slab + header.values_off);
  } else {
    view.dictionary =
        reinterpret_cast<const double*>(slab + header.values_off);
    view.ids =
        reinterpret_cast<const std::uint16_t*>(slab + header.ids_off);
  }
  view.entry_start =
      reinterpret_cast<const std::uint32_t*>(slab + header.entry_start_off);
  if (view.encoding == Encoding::kDict16Off16) {
    view.offsets16 =
        reinterpret_cast<const std::int16_t*>(slab + header.offsets_off);
  } else {
    view.offsets32 =
        reinterpret_cast<const std::int32_t*>(slab + header.offsets_off);
  }
  return view;
}

void TileStore::validate_slab(std::size_t tile, const SlabView& view) const {
  const TileInfo& info = tiles_[tile];
  const auto fail = [&](const char* what) -> void {
    throw Error("tile store '" + file_.path() + "': tile " +
                std::to_string(tile) + " slab invalid: " + what);
  };
  if (view.entry_start[0] != 0 || view.entry_start[view.rows] != view.entries) {
    fail("entry table endpoints");
  }
  for (std::size_t local = 0; local < view.rows; ++local) {
    if (view.entry_start[local + 1] < view.entry_start[local]) {
      fail("entry table not monotone");
    }
  }
  // Every (row + offset) must land inside [0, rows_): the kernels index x
  // with it unchecked, so a damaged offset that survived the checksum
  // must still never become UB.
  for (std::size_t local = 0; local < view.rows; ++local) {
    const std::int64_t row =
        static_cast<std::int64_t>(info.row_begin + local);
    for (std::uint32_t k = view.entry_start[local];
         k < view.entry_start[local + 1]; ++k) {
      const std::int64_t offset = view.offsets16 != nullptr
                                      ? view.offsets16[k]
                                      : view.offsets32[k];
      const std::int64_t column = row + offset;
      if (column < 0 || column >= static_cast<std::int64_t>(rows_)) {
        fail("column offset out of matrix bounds");
      }
      if (view.ids != nullptr && view.ids[k] >= view.dict_size) {
        fail("dictionary id out of range");
      }
    }
  }
}

double TileStore::multiply_fused_tile(std::size_t tile,
                                      const common::AlignedBuffer& slab,
                                      const std::vector<double>& x,
                                      std::vector<double>& out,
                                      std::vector<double>& accum,
                                      double weight, std::size_t local_begin,
                                      std::size_t local_end) const {
  KIBAMRM_REQUIRE(tile < tiles_.size(), "tile store: tile out of range");
  KIBAMRM_REQUIRE(x.size() == rows_ && out.size() == rows_ &&
                      accum.size() == rows_,
                  "tile store: vectors not sized to rows()");
  const TileInfo& info = tiles_[tile];
  const SlabView view = parse_slab(tile, slab.data(), slab.size());
  KIBAMRM_REQUIRE(local_begin <= local_end && local_end <= view.rows,
                  "tile store: invalid local row range");
  const std::size_t base = info.row_begin;
  if (view.encoding == Encoding::kDict16Off16) {
    return fused_tile_rows(
        view.entry_start, view.offsets16,
        [&](std::uint32_t k) { return view.dictionary[view.ids[k]]; }, base,
        x.data(), out.data(), accum.data(), weight, local_begin, local_end);
  }
  if (view.encoding == Encoding::kDict16Off32) {
    return fused_tile_rows(
        view.entry_start, view.offsets32,
        [&](std::uint32_t k) { return view.dictionary[view.ids[k]]; }, base,
        x.data(), out.data(), accum.data(), weight, local_begin, local_end);
  }
  return fused_tile_rows(
      view.entry_start, view.offsets32,
      [&](std::uint32_t k) { return view.inline_values[k]; }, base, x.data(),
      out.data(), accum.data(), weight, local_begin, local_end);
}

std::vector<std::size_t> TileStore::balanced_tile_ranges(
    std::size_t tile, const common::AlignedBuffer& slab,
    std::size_t parts) const {
  KIBAMRM_REQUIRE(parts > 0, "tile store: parts must be positive");
  const SlabView view = parse_slab(tile, slab.data(), slab.size());
  // Same fair-share policy as CsrMatrix::balanced_row_ranges (nnz + 1
  // weighting); the partition never affects results, only balance.
  std::vector<std::size_t> ranges = {0};
  double outstanding = static_cast<double>(view.entries + view.rows);
  double carried = 0.0;
  for (std::size_t local = 0; local < view.rows; ++local) {
    carried += static_cast<double>(view.entry_start[local + 1] -
                                   view.entry_start[local]) +
               1.0;
    const std::size_t open = ranges.size();
    const double fair_share =
        outstanding / static_cast<double>(parts - open + 1);
    if (open < parts && carried >= fair_share &&
        view.rows - local - 1 >= parts - open) {
      ranges.push_back(local + 1);
      outstanding -= carried;
      carried = 0.0;
    }
  }
  ranges.push_back(view.rows);
  return ranges;
}

/// Exposed for the ooc backend: P-pattern-exact reachable closure without
/// materialising P.
std::vector<std::uint32_t> tile_store_reachable_rows(
    const CsrMatrix& generator, std::span<const std::uint32_t> seeds,
    double rate) {
  return UniformizedRowStream::reachable_rows(generator, seeds, rate);
}

}  // namespace kibamrm::linalg
