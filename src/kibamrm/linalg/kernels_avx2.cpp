// AVX2 tier of the dispatched kernel layer.  Compiled with -mavx2 and FP
// contraction off (see CMakeLists); every kernel reproduces the canonical
// arithmetic order of its scalar counterpart bit for bit:
//
//   * reductions hold the contract's interleaved lanes in ymm registers
//     (four chained accumulators hide the add latency without changing
//     the order -- the 16-lane structure IS the contract),
//   * element-wise kernels round per element, and no fused multiply-add
//     is ever emitted (the contract fixes the intermediate rounding),
//   * the uniform-segment kernel vectorises ACROSS rows (lane r = row r),
//     evaluating each row in the same per-length order as the scalar
//     switch -- lanes change which rows share a register, never the
//     order within a row.
#include "kibamrm/linalg/kernels_internal.hpp"

#if KIBAMRM_HAVE_AVX2_TIER

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "kibamrm/linalg/kernels.hpp"

namespace kibamrm::linalg::kernels::detail {

namespace {

/// Canonical lane combine of one reduction block: (l0+l2)+(l1+l3).
inline double lane_combine(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // (l0+l2, l1+l3)
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

inline double lane_max(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d pair = _mm_max_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_max_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

/// One block of the fixed-block dot: sixteen interleaved lanes in four
/// registers (element i feeds register (i/4)%4, lane i%4), folded as
/// ((A0+A2)+(A1+A3)) -> lane combine, then a four-lane loop on A0 and a
/// sequential tail.  kernels.cpp walks the identical structure in scalar.
inline double dot_block(const double* a, const double* b, std::size_t begin,
                        std::size_t end) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  std::size_t i = begin;
  for (; i + 16 <= end; i += 16) {
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                         _mm256_loadu_pd(b + i)));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                                         _mm256_loadu_pd(b + i + 4)));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(a + i + 8),
                                         _mm256_loadu_pd(b + i + 8)));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(a + i + 12),
                                         _mm256_loadu_pd(b + i + 12)));
  }
  for (; i + 4 <= end; i += 4) {
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                         _mm256_loadu_pd(b + i)));
  }
  double tail = 0.0;
  for (; i < end; ++i) tail += a[i] * b[i];
  const __m256d folded =
      _mm256_add_pd(_mm256_add_pd(a0, a2), _mm256_add_pd(a1, a3));
  return lane_combine(folded) + tail;
}

}  // namespace

void avx2_dot_blocks(const double* a, const double* b, std::size_t n,
                     std::size_t block_begin, std::size_t block_end,
                     double* partials) {
  for (std::size_t block = block_begin; block < block_end; ++block) {
    const std::size_t begin = block * kBlockDoubles;
    const std::size_t end = std::min(n, begin + kBlockDoubles);
    partials[block] = dot_block(a, b, begin, end);
  }
}

void avx2_axpy(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(av, _mm256_loadu_pd(x + i))));
    _mm256_storeu_pd(
        y + i + 4,
        _mm256_add_pd(_mm256_loadu_pd(y + i + 4),
                      _mm256_mul_pd(av, _mm256_loadu_pd(x + i + 4))));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(av, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void avx2_scale(double* v, double alpha, std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(v + i, _mm256_mul_pd(av, _mm256_loadu_pd(v + i)));
  }
  for (; i < n; ++i) v[i] *= alpha;
}

namespace {

/// Canonical per-length combine of per-entry product vectors, one row per
/// lane: the same association as FusedGatherPlan's scalar switch.
template <typename Entry>
inline __m256d combine_entries(std::uint32_t length, const Entry& entry) {
  __m256d v = entry(0);
  if (length == 2) {
    v = _mm256_add_pd(v, entry(1));
  } else if (length == 3) {
    v = _mm256_add_pd(_mm256_add_pd(v, entry(1)), entry(2));
  } else if (length == 4) {
    v = _mm256_add_pd(_mm256_add_pd(v, entry(1)),
                      _mm256_add_pd(entry(2), entry(3)));
  }
  return v;
}

/// Scalar remainder of a uniform run (< 4 rows), canonical order.
inline double uniform_row_scalar(std::uint32_t length,
                                 const std::int16_t* offsets,
                                 const std::uint16_t* ids_t,
                                 std::size_t seg_rows, std::size_t r,
                                 const double* dictionary, const double* x,
                                 std::size_t row) {
  const auto term = [&](std::uint32_t e) {
    return dictionary[ids_t[e * seg_rows + r]] * x[row + offsets[e]];
  };
  switch (length) {
    case 1:
      return term(0);
    case 2:
      return term(0) + term(1);
    case 3:
      return term(0) + term(1) + term(2);
    default:
      return (term(0) + term(1)) + (term(2) + term(3));
  }
}

}  // namespace

double avx2_plan_uniform_rows(std::uint32_t length,
                              const std::int16_t* offsets,
                              const std::uint16_t* ids_t,
                              std::size_t seg_rows, std::size_t local_begin,
                              const double* dictionary, const double* x,
                              double* out, double* accum, double weight,
                              std::size_t row_begin, std::size_t row_end) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d weight_v = _mm256_set1_pd(weight);
  __m256d delta_v = _mm256_setzero_pd();
  double delta = 0.0;
  std::size_t row = row_begin;
  std::size_t r = local_begin;
  for (; row + 4 <= row_end; row += 4, r += 4) {
    const auto entry = [&](std::uint32_t e) {
      // Four consecutive rows of the run: dictionary ids are contiguous
      // in the transposed slab, x operands are contiguous because the
      // column offset is shared -- no gather needed for x.  Dictionary
      // lanes compose from scalar loads (cache-resident dictionary;
      // measured on par with vgatherdpd at 4 lanes).
      const std::uint16_t* ids = ids_t + e * seg_rows + r;
      const __m256d dv =
          _mm256_set_pd(dictionary[ids[3]], dictionary[ids[2]],
                        dictionary[ids[1]], dictionary[ids[0]]);
      const __m256d xv = _mm256_loadu_pd(x + row + offsets[e]);
      return _mm256_mul_pd(dv, xv);
    };
    const __m256d v = combine_entries(length, entry);
    _mm256_storeu_pd(out + row, v);
    if (weight != 0.0) {
      _mm256_storeu_pd(accum + row,
                       _mm256_add_pd(_mm256_loadu_pd(accum + row),
                                     _mm256_mul_pd(weight_v, v)));
    }
    delta_v = _mm256_max_pd(
        delta_v, _mm256_andnot_pd(
                     sign_mask, _mm256_sub_pd(v, _mm256_loadu_pd(x + row))));
  }
  for (; row < row_end; ++row, ++r) {
    const double v = uniform_row_scalar(length, offsets, ids_t, seg_rows, r,
                                        dictionary, x, row);
    out[row] = v;
    if (weight != 0.0) accum[row] += weight * v;
    delta = std::max(delta, std::abs(v - x[row]));
  }
  return std::max(delta, lane_max(delta_v));
}

}  // namespace kibamrm::linalg::kernels::detail

#endif  // KIBAMRM_HAVE_AVX2_TIER
