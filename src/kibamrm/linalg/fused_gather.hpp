// A compressed, fused gather kernel for the uniformisation power iteration.
//
// The hot loop of uniformisation streams the same sparse matrix tens of
// thousands of times; at ~3 stored entries per row the kernel is bound by
// memory traffic, not arithmetic.  Expanded battery chains are (a) banded
// -- every column index is within a few hundred of its row -- and (b)
// value-sparse: the generator is assembled from a small set of rates, so
// the ~1e6 stored doubles take only a few thousand distinct values.
//
// FusedGatherPlan exploits both.  Two compressed layouts exist:
//
//   kRowOffset     each entry packs into 4 bytes: int16 column offset from
//                  the row plus uint16 index into a value dictionary
//                  (CSR spends 12); row lengths stream as one uint8 each.
//                  ~1/3 the per-iteration traffic on the paper's Fig. 8
//                  chains, measured ~1.3-1.5x end-to-end over the CSR
//                  gather.
//
//                  build() also detects UNIFORM SEGMENTS -- runs
//                  of consecutive rows that share both their length (1-4)
//                  and their entire column-offset pattern.  On a
//                  level-major-reordered battery chain (see
//                  core::StateOrdering::kLevel) ~99% of rows fall into
//                  such segments, and within one the x operands of entry
//                  e across neighbouring rows are CONTIGUOUS: the SIMD
//                  kernels vectorise across rows (one row per lane, 8 for
//                  AVX-512 / 4 for AVX2) with plain vector loads for x, a
//                  cache-resident dictionary gather for the values, and
//                  the unchanged per-row canonical order -- so the
//                  segment kernels stay inside the bitwise contract.
//                  Segment dispatch is automatic whenever a SIMD tier is
//                  active; rows outside segments run the scalar kernel.
//
//   kColumnDelta   fallback for wide chains whose column offsets escape
//                  int16: per-row absolute first column (uint32) plus
//                  uint16 deltas between consecutive columns -- CSR
//                  columns are sorted, so any row whose largest gap fits
//                  16 bits compresses, regardless of the band width.
//                  Same 4 bytes per entry plus 4 per row; scalar kernel
//                  only.
//
// The kernel itself is the same fused uniformisation step as
// CsrMatrix::multiply_fused_range (spmv + Poisson-weighted accumulate +
// sup-norm step delta in one pass) with bitwise-identical arithmetic: the
// dictionary stores exact doubles and every row length evaluates in the
// same canonical order, so a solver may pick either kernel, either
// layout, or either dispatch tier -- or shard any of them across threads
// -- without changing a single bit of the result.
//
// Chains that fit neither layout (a within-row column gap beyond uint16,
// more than 65535 distinct values, rows longer than 255 entries) simply
// fail build(); callers fall back to the CSR kernel.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "kibamrm/linalg/csr_matrix.hpp"

namespace kibamrm::linalg {

class FusedGatherPlan {
 public:
  enum class Layout {
    kRowOffset,    ///< int16 (column - row) offsets; SIMD segments
    kColumnDelta,  ///< absolute first column + uint16 in-row deltas; scalar
  };

  /// Builds a plan from a square (transposed-transition) matrix, or
  /// returns nullopt when the matrix fits neither compressed layout.
  static std::optional<FusedGatherPlan> build(const CsrMatrix& matrix);

  std::size_t rows() const { return lengths_.size(); }

  /// Entries actually stored (== source nonzeros).
  std::size_t nonzeros() const { return value_ids_.size(); }

  Layout layout() const { return layout_; }

  /// Fraction of rows covered by uniform segments (identical length and
  /// offset pattern, runs of >= 8 rows).  ~0 for naturally-ordered
  /// battery chains, ~0.99 after level-major reordering.
  double uniform_fraction() const {
    return lengths_.empty()
               ? 0.0
               : static_cast<double>(uniform_rows_) /
                     static_cast<double>(lengths_.size());
  }

  /// Same contract and bitwise-identical result as
  /// CsrMatrix::multiply_fused_range on the source matrix: for rows in
  /// [row_begin, row_end) computes out[row] = dot(row, x), accumulates
  /// accum[row] += weight * out[row] (skipped for weight == 0) and
  /// returns the range-local max |out[row] - x[row]|.  Disjoint ranges
  /// touch disjoint entries, so ranges shard across threads freely.
  double multiply_fused_range(const std::vector<double>& x,
                              std::vector<double>& out,
                              std::vector<double>& accum, double weight,
                              std::size_t row_begin,
                              std::size_t row_end) const;

 private:
  FusedGatherPlan() = default;

  double fused_range_row_offset(const std::vector<double>& x,
                                std::vector<double>& out,
                                std::vector<double>& accum, double weight,
                                std::size_t row_begin,
                                std::size_t row_end) const;
  double fused_range_column_delta(const std::vector<double>& x,
                                  std::vector<double>& out,
                                  std::vector<double>& accum, double weight,
                                  std::size_t row_begin,
                                  std::size_t row_end) const;

  /// One maximal run of rows sharing length (1-4) and offset pattern.
  struct UniformSegment {
    std::uint32_t row_begin = 0;
    std::uint32_t row_count = 0;
    std::uint32_t length = 0;
    std::uint32_t ids_base = 0;  ///< offset into segment_ids_
  };

  void build_uniform_segments();

  /// The canonical scalar kernel over the row-offset layout.
  double fused_rows_scalar(const double* x, double* out, double* accum,
                           double weight, std::size_t row_begin,
                           std::size_t row_end) const;

  /// Walks [row_begin, row_end) alternating between uniform segments
  /// (vectorised kernel, 8 or 4 rows per group) and the canonical scalar
  /// span between them.
  double fused_segments_simd(const double* x, double* out, double* accum,
                             double weight, std::size_t row_begin,
                             std::size_t row_end, bool use_avx512) const;

  Layout layout_ = Layout::kRowOffset;
  std::vector<std::uint8_t> lengths_;      // stored entries per row
  std::vector<std::uint32_t> entry_start_; // per-row entry offset (size rows+1);
                                           // read once per kernel call, not per row
  std::vector<std::uint16_t> value_ids_;   // dictionary index, per entry
  std::vector<double> dictionary_;         // distinct values, exact bit patterns
  // kRowOffset layout:
  std::vector<std::int16_t> offsets_;      // column - row, per entry
  // Uniform segments (kRowOffset only), ascending by row_begin:
  std::vector<UniformSegment> segments_;
  std::vector<std::uint16_t> segment_ids_; // entry-major transposed ids:
                                           // ids_base + e*row_count + r
  std::size_t uniform_rows_ = 0;           // rows covered by segments_
  // Rows of look-ahead for the scalar kernel's software prefetch of x;
  // 0 disables.  Set at build() time when the band is wide enough that
  // the x accesses of upcoming rows fall outside the L1-resident
  // neighbourhood the hardware prefetcher already covers (narrow bands
  // measured a wash or a small loss from the extra instructions).
  std::size_t prefetch_distance_ = 0;
  // kColumnDelta layout:
  std::vector<std::uint32_t> first_col_;   // absolute column of entry 0, per row
  std::vector<std::uint16_t> deltas_;      // column gap to the previous entry
                                           // (entry 0 of each row stores 0)
};

}  // namespace kibamrm::linalg
