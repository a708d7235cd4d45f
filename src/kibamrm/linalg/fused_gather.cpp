#include "kibamrm/linalg/fused_gather.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "kibamrm/common/error.hpp"
#include "kibamrm/linalg/kernels.hpp"
#include "kibamrm/linalg/kernels_internal.hpp"

namespace kibamrm::linalg {

std::optional<FusedGatherPlan> FusedGatherPlan::build(
    const CsrMatrix& matrix) {
  if (matrix.rows() != matrix.cols()) return std::nullopt;
  const auto row_ptr = matrix.row_pointers();
  const auto col_idx = matrix.column_indices();
  const auto values = matrix.values();

  FusedGatherPlan plan;
  plan.lengths_.resize(matrix.rows());
  plan.entry_start_.assign(row_ptr.begin(), row_ptr.end());
  plan.value_ids_.resize(matrix.nonzeros());
  plan.offsets_.resize(matrix.nonzeros());
  std::unordered_map<double, std::uint16_t> ids;
  ids.reserve(1024);

  // First pass: the row-offset layout, plus the length and dictionary
  // constraints shared by both layouts.  A single offset outside int16
  // downgrades to the column-delta layout below (without redoing the
  // dictionary); length or dictionary overflow fails the build outright.
  bool offsets_fit = true;
  std::int64_t max_abs_offset = 0;
  for (std::size_t row = 0; row < matrix.rows(); ++row) {
    const std::uint32_t length = row_ptr[row + 1] - row_ptr[row];
    if (length > std::numeric_limits<std::uint8_t>::max()) return std::nullopt;
    plan.lengths_[row] = static_cast<std::uint8_t>(length);
    for (std::uint32_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
      const auto offset = static_cast<std::int64_t>(col_idx[k]) -
                          static_cast<std::int64_t>(row);
      if (offset < std::numeric_limits<std::int16_t>::min() ||
          offset > std::numeric_limits<std::int16_t>::max()) {
        offsets_fit = false;
      } else {
        plan.offsets_[k] = static_cast<std::int16_t>(offset);
        max_abs_offset = std::max(max_abs_offset, std::abs(offset));
      }
      const auto [it, inserted] = ids.try_emplace(
          values[k], static_cast<std::uint16_t>(plan.dictionary_.size()));
      if (inserted) {
        if (plan.dictionary_.size() >
            std::numeric_limits<std::uint16_t>::max()) {
          return std::nullopt;
        }
        plan.dictionary_.push_back(values[k]);
      }
      plan.value_ids_[k] = it->second;
    }
  }
  if (offsets_fit) {
    // Software-prefetch heuristic for the scalar kernel on banded
    // layouts: when the band spans more doubles than fit in a
    // L1-resident neighbourhood (~4K doubles = 32KB), the x reads of
    // rows a few iterations ahead miss reliably, and prefetching the
    // first operand of row + distance hides that latency.  Narrow bands
    // stay prefetch-free -- the hardware stride prefetcher already owns
    // them.
    if (max_abs_offset > 4096) plan.prefetch_distance_ = 16;
    plan.build_uniform_segments();
    return plan;
  }

  // Column-delta fallback: CSR columns are sorted ascending within a row,
  // so consecutive gaps are non-negative; any gap beyond uint16 defeats
  // this layout too.
  plan.layout_ = Layout::kColumnDelta;
  plan.offsets_.clear();
  plan.offsets_.shrink_to_fit();
  plan.first_col_.assign(matrix.rows(), 0);
  plan.deltas_.assign(matrix.nonzeros(), 0);
  for (std::size_t row = 0; row < matrix.rows(); ++row) {
    std::uint32_t previous = 0;
    for (std::uint32_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
      if (k == row_ptr[row]) {
        plan.first_col_[row] = col_idx[k];
      } else {
        const std::uint32_t gap = col_idx[k] - previous;
        if (gap > std::numeric_limits<std::uint16_t>::max()) {
          return std::nullopt;
        }
        plan.deltas_[k] = static_cast<std::uint16_t>(gap);
      }
      previous = col_idx[k];
    }
  }
  return plan;
}

void FusedGatherPlan::build_uniform_segments() {
  // A uniform segment is a maximal run of consecutive rows sharing both
  // their length (1-4, the canonical vector-combine widths) and their
  // entire offset pattern; within one, entry e of neighbouring rows reads
  // x at consecutive addresses.  Runs shorter than 8 rows are not worth a
  // segment (the AVX-512 kernel processes 8 rows per group).
  constexpr std::size_t kMinSegmentRows = 8;
  const std::size_t n = lengths_.size();
  std::size_t run_begin = 0;
  const auto matches_previous = [&](std::size_t row) {
    const std::uint8_t length = lengths_[row];
    if (length != lengths_[row - 1]) return false;
    const std::uint32_t k0 = entry_start_[row - 1];
    const std::uint32_t k1 = entry_start_[row];
    for (std::uint8_t e = 0; e < length; ++e) {
      if (offsets_[k0 + e] != offsets_[k1 + e]) return false;
    }
    return true;
  };
  const auto flush = [&](std::size_t run_end) {
    const std::size_t count = run_end - run_begin;
    const std::uint32_t length = lengths_[run_begin];
    if (count < kMinSegmentRows || length < 1 || length > 4) return;
    UniformSegment segment;
    segment.row_begin = static_cast<std::uint32_t>(run_begin);
    segment.row_count = static_cast<std::uint32_t>(count);
    segment.length = length;
    segment.ids_base = static_cast<std::uint32_t>(segment_ids_.size());
    // Transpose the dictionary ids entry-major so the kernels load the
    // ids of one entry across 4/8 rows with a single contiguous read.
    segment_ids_.resize(segment_ids_.size() + count * length);
    std::uint16_t* ids = segment_ids_.data() + segment.ids_base;
    for (std::size_t r = 0; r < count; ++r) {
      const std::uint32_t k = entry_start_[run_begin + r];
      for (std::uint32_t e = 0; e < length; ++e) {
        ids[e * count + r] = value_ids_[k + e];
      }
    }
    uniform_rows_ += count;
    segments_.push_back(segment);
  };
  for (std::size_t row = 1; row < n; ++row) {
    if (!matches_previous(row)) {
      flush(row);
      run_begin = row;
    }
  }
  if (n > 0) flush(n);
}

double FusedGatherPlan::multiply_fused_range(const std::vector<double>& x,
                                             std::vector<double>& out,
                                             std::vector<double>& accum,
                                             double weight,
                                             std::size_t row_begin,
                                             std::size_t row_end) const {
  KIBAMRM_REQUIRE(x.size() == rows() && out.size() == rows() &&
                      accum.size() == rows(),
                  "FusedGatherPlan: vectors not sized to rows()");
  KIBAMRM_REQUIRE(row_begin <= row_end && row_end <= rows(),
                  "FusedGatherPlan: invalid row range");
  return layout_ == Layout::kRowOffset
             ? fused_range_row_offset(x, out, accum, weight, row_begin,
                                      row_end)
             : fused_range_column_delta(x, out, accum, weight, row_begin,
                                        row_end);
}

double FusedGatherPlan::fused_rows_scalar(const double* x, double* out,
                                          double* accum, double weight,
                                          std::size_t row_begin,
                                          std::size_t row_end) const {
  const std::uint8_t* lengths = lengths_.data();
  const std::int16_t* offsets = offsets_.data();
  const std::uint16_t* value_ids = value_ids_.data();
  const double* dictionary = dictionary_.data();
  double delta = 0.0;
  std::size_t k = entry_start_[row_begin];
  const auto term = [&](std::size_t row, std::size_t e) {
    return dictionary[value_ids[e]] * x[row + offsets[e]];
  };
  // Prefetching never touches the arithmetic, so the bitwise contract is
  // unaffected; only offsets_-backed (kRowOffset) plans reach this loop.
  const std::size_t prefetch = prefetch_distance_;
  for (std::size_t row = row_begin; row < row_end; ++row) {
#if defined(__GNUC__) || defined(__clang__)
    if (prefetch != 0 && row + prefetch < row_end) {
      const std::size_t ahead = entry_start_[row + prefetch];
      if (ahead < entry_start_[row + prefetch + 1]) {
        __builtin_prefetch(&x[row + prefetch + offsets[ahead]], 0, 1);
      }
    }
#endif
    double v;
    // Canonical per-length evaluation order, mirrored exactly by
    // CsrMatrix::multiply_fused_range and the SIMD kernels, so all
    // double kernels agree bitwise.
    switch (lengths[row]) {
      case 0:
        v = 0.0;
        break;
      case 1:
        v = term(row, k);
        k += 1;
        break;
      case 2:
        v = term(row, k) + term(row, k + 1);
        k += 2;
        break;
      case 3:
        v = term(row, k) + term(row, k + 1) + term(row, k + 2);
        k += 3;
        break;
      case 4:
        v = (term(row, k) + term(row, k + 1)) +
            (term(row, k + 2) + term(row, k + 3));
        k += 4;
        break;
      default: {
        double s0 = 0.0;
        double s1 = 0.0;
        std::uint8_t j = 0;
        const std::uint8_t length = lengths[row];
        for (; j + 2 <= length; j += 2) {
          s0 += term(row, k + j);
          s1 += term(row, k + j + 1);
        }
        if (j < length) {
          s0 += term(row, k + j);
        }
        v = s0 + s1;
        k += length;
      }
    }
    out[row] = v;
    if (weight != 0.0) accum[row] += weight * v;
    delta = std::max(delta, std::abs(v - x[row]));
  }
  return delta;
}

double FusedGatherPlan::fused_segments_simd(const double* x, double* out,
                                            double* accum, double weight,
                                            std::size_t row_begin,
                                            std::size_t row_end,
                                            bool use_avx512) const {
#if !KIBAMRM_HAVE_AVX2_TIER
  (void)use_avx512;
  return fused_rows_scalar(x, out, accum, weight, row_begin, row_end);
#else
  const double* dictionary = dictionary_.data();
  // First segment that can still cover row_begin.
  std::size_t si =
      std::partition_point(segments_.begin(), segments_.end(),
                           [&](const UniformSegment& segment) {
                             return segment.row_begin + segment.row_count <=
                                    row_begin;
                           }) -
      segments_.begin();
  double delta = 0.0;
  std::size_t row = row_begin;
  while (row < row_end) {
    if (si < segments_.size() && segments_[si].row_begin <= row) {
      const UniformSegment& segment = segments_[si];
      const std::size_t segment_end = segment.row_begin + segment.row_count;
      const std::size_t end = std::min(row_end, segment_end);
      const std::int16_t* offsets =
          offsets_.data() + entry_start_[segment.row_begin];
      const std::uint16_t* ids = segment_ids_.data() + segment.ids_base;
      const std::size_t local = row - segment.row_begin;
      double segment_delta;
#if KIBAMRM_HAVE_AVX512_TIER
      if (use_avx512) {
        segment_delta = kernels::detail::avx512_plan_uniform_rows(
            segment.length, offsets, ids, segment.row_count, local,
            dictionary, x, out, accum, weight, row, end);
      } else
#endif
      {
        segment_delta = kernels::detail::avx2_plan_uniform_rows(
            segment.length, offsets, ids, segment.row_count, local,
            dictionary, x, out, accum, weight, row, end);
      }
      delta = std::max(delta, segment_delta);
      row = end;
      if (row >= segment_end) ++si;
    } else {
      const std::size_t end =
          si < segments_.size()
              ? std::min<std::size_t>(row_end, segments_[si].row_begin)
              : row_end;
      delta = std::max(delta,
                       fused_rows_scalar(x, out, accum, weight, row, end));
      row = end;
    }
  }
  return delta;
#endif
}

double FusedGatherPlan::fused_range_row_offset(
    const std::vector<double>& x, std::vector<double>& out,
    std::vector<double>& accum, double weight, std::size_t row_begin,
    std::size_t row_end) const {
#if KIBAMRM_HAVE_AVX2_TIER
  // Uniform segments dispatch automatically under any SIMD tier: the
  // across-row kernels replace gathers with contiguous loads, which wins
  // wherever segments exist at all (they only exist on reordered chains).
  const kernels::Dispatch tier = kernels::active_dispatch();
  if (tier != kernels::Dispatch::kScalar && !segments_.empty()) {
    return fused_segments_simd(x.data(), out.data(), accum.data(), weight,
                               row_begin, row_end,
                               tier == kernels::Dispatch::kAvx512);
  }
#endif
  return fused_rows_scalar(x.data(), out.data(), accum.data(), weight,
                           row_begin, row_end);
}

double FusedGatherPlan::fused_range_column_delta(
    const std::vector<double>& x, std::vector<double>& out,
    std::vector<double>& accum, double weight, std::size_t row_begin,
    std::size_t row_end) const {
  const std::uint8_t* lengths = lengths_.data();
  const std::uint32_t* first_col = first_col_.data();
  const std::uint16_t* deltas = deltas_.data();
  const std::uint16_t* value_ids = value_ids_.data();
  const double* dictionary = dictionary_.data();
  const double* in = x.data();
  double delta = 0.0;
  std::size_t k = entry_start_[row_begin];
  for (std::size_t row = row_begin; row < row_end; ++row) {
    // Columns rebuild incrementally from the per-row absolute start; the
    // per-length evaluation order is the same canonical one as above, so
    // the two layouts agree bitwise on any matrix both can represent.
    const std::uint8_t length = lengths[row];
    std::uint32_t c0;
    std::uint32_t c1;
    std::uint32_t c2;
    std::uint32_t c3;
    double v;
    switch (length) {
      case 0:
        v = 0.0;
        break;
      case 1:
        v = dictionary[value_ids[k]] * in[first_col[row]];
        k += 1;
        break;
      case 2:
        c0 = first_col[row];
        c1 = c0 + deltas[k + 1];
        v = dictionary[value_ids[k]] * in[c0] +
            dictionary[value_ids[k + 1]] * in[c1];
        k += 2;
        break;
      case 3:
        c0 = first_col[row];
        c1 = c0 + deltas[k + 1];
        c2 = c1 + deltas[k + 2];
        v = dictionary[value_ids[k]] * in[c0] +
            dictionary[value_ids[k + 1]] * in[c1] +
            dictionary[value_ids[k + 2]] * in[c2];
        k += 3;
        break;
      case 4:
        c0 = first_col[row];
        c1 = c0 + deltas[k + 1];
        c2 = c1 + deltas[k + 2];
        c3 = c2 + deltas[k + 3];
        v = (dictionary[value_ids[k]] * in[c0] +
             dictionary[value_ids[k + 1]] * in[c1]) +
            (dictionary[value_ids[k + 2]] * in[c2] +
             dictionary[value_ids[k + 3]] * in[c3]);
        k += 4;
        break;
      default: {
        double s0 = 0.0;
        double s1 = 0.0;
        std::uint32_t even_col = first_col[row];
        std::uint32_t odd_col = even_col + deltas[k + 1];
        std::uint8_t j = 0;
        for (; j + 2 <= length; j += 2) {
          s0 += dictionary[value_ids[k + j]] * in[even_col];
          s1 += dictionary[value_ids[k + j + 1]] * in[odd_col];
          if (j + 2 < length) {
            even_col = odd_col + deltas[k + j + 2];
            if (j + 3 < length) odd_col = even_col + deltas[k + j + 3];
          }
        }
        if (j < length) {
          s0 += dictionary[value_ids[k + j]] * in[even_col];
        }
        v = s0 + s1;
        k += length;
      }
    }
    out[row] = v;
    if (weight != 0.0) accum[row] += weight * v;
    delta = std::max(delta, std::abs(v - in[row]));
  }
  return delta;
}

}  // namespace kibamrm::linalg
