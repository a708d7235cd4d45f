// AVX-512 tier of the dispatched kernel layer.  Compiled with
// -mavx512{f,dq,vl,bw} and FP contraction off (see CMakeLists); the
// double-precision kernels reproduce the canonical arithmetic order of
// their scalar counterparts bit for bit:
//
//   * the reduction holds the contract's sixteen interleaved lanes in two
//     zmm registers whose ymm halves are exactly the four AVX2 contract
//     registers, so the register-pairwise fold is literally the same
//     arithmetic,
//   * element-wise kernels round per element; the masked tails only
//     change which instruction performs an order-free operation,
//   * the uniform-run kernel vectorises ACROSS rows (lane r = row r), so
//     each lane executes the scalar per-length order unchanged -- eight
//     rows share registers, no row's arithmetic is reassociated.
//
// Dictionary values are fetched with vgatherdpd: unlike a general
// within-row gather, the uniform-run kernel gathers from a dictionary of a
// few thousand distinct rates that stays cache-resident, where the
// hardware gather's fixed cost is amortised over eight lanes.  The x
// operands need no gather at all -- identical column offsets across the
// run make them contiguous loads.
#include "kibamrm/linalg/kernels_internal.hpp"

#if KIBAMRM_HAVE_AVX512_TIER

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

/// One block of the fixed-block dot.  The two zmm accumulators hold the
/// contract's sixteen lanes with z0 = (A0 | A1) and z1 = (A2 | A3) in the
/// AVX2 tier's register naming, so extracting the four ymm halves and
/// folding ((A0+A2)+(A1+A3)) reproduces the canonical order exactly.
inline double dot_block(const double* a, const double* b, std::size_t begin,
                        std::size_t end) {
  __m512d z0 = _mm512_setzero_pd();
  __m512d z1 = _mm512_setzero_pd();
  std::size_t i = begin;
  for (; i + 16 <= end; i += 16) {
    z0 = _mm512_add_pd(z0, _mm512_mul_pd(_mm512_loadu_pd(a + i),
                                         _mm512_loadu_pd(b + i)));
    z1 = _mm512_add_pd(z1, _mm512_mul_pd(_mm512_loadu_pd(a + i + 8),
                                         _mm512_loadu_pd(b + i + 8)));
  }
  __m256d a0 = _mm512_castpd512_pd256(z0);
  const __m256d a1 = _mm512_extractf64x4_pd(z0, 1);
  const __m256d a2 = _mm512_castpd512_pd256(z1);
  const __m256d a3 = _mm512_extractf64x4_pd(z1, 1);
  // Partial group of four feeds the first register's lanes, exactly as
  // the scalar and AVX2 cleanup loops do.
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

/// Canonical per-length combine of per-entry product vectors, one row per
/// lane: the same association as FusedGatherPlan's scalar switch.
template <typename Entry>
inline __m512d combine_entries512(std::uint32_t length, const Entry& entry) {
  __m512d v = entry(0);
  if (length == 2) {
    v = _mm512_add_pd(v, entry(1));
  } else if (length == 3) {
    v = _mm512_add_pd(_mm512_add_pd(v, entry(1)), entry(2));
  } else if (length == 4) {
    v = _mm512_add_pd(_mm512_add_pd(v, entry(1)),
                      _mm512_add_pd(entry(2), entry(3)));
  }
  return v;
}

/// Scalar remainder of a uniform run (< 8 rows), canonical order.
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

void avx512_dot_blocks(const double* a, const double* b, std::size_t n,
                       std::size_t block_begin, std::size_t block_end,
                       double* partials) {
  for (std::size_t block = block_begin; block < block_end; ++block) {
    const std::size_t begin = block * kBlockDoubles;
    const std::size_t end = std::min(n, begin + kBlockDoubles);
    partials[block] = dot_block(a, b, begin, end);
  }
}

void avx512_axpy(double alpha, const double* x, double* y, std::size_t n) {
  const __m512d av = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                             _mm512_mul_pd(av, _mm512_loadu_pd(x + i))));
  }
  if (i < n) {
    const __mmask8 mask =
        static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512d xv = _mm512_maskz_loadu_pd(mask, x + i);
    const __m512d yv = _mm512_maskz_loadu_pd(mask, y + i);
    _mm512_mask_storeu_pd(y + i, mask,
                          _mm512_add_pd(yv, _mm512_mul_pd(av, xv)));
  }
}

void avx512_scale(double* v, double alpha, std::size_t n) {
  const __m512d av = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(v + i, _mm512_mul_pd(av, _mm512_loadu_pd(v + i)));
  }
  if (i < n) {
    const __mmask8 mask =
        static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_pd(
        v + i, mask,
        _mm512_mul_pd(av, _mm512_maskz_loadu_pd(mask, v + i)));
  }
}

double avx512_plan_uniform_rows(std::uint32_t length,
                                const std::int16_t* offsets,
                                const std::uint16_t* ids_t,
                                std::size_t seg_rows,
                                std::size_t local_begin,
                                const double* dictionary, const double* x,
                                double* out, double* accum, double weight,
                                std::size_t row_begin, std::size_t row_end) {
  const __m512d sign_mask = _mm512_set1_pd(-0.0);
  const __m512d weight_v = _mm512_set1_pd(weight);
  __m512d delta_v = _mm512_setzero_pd();
  double delta = 0.0;
  std::size_t row = row_begin;
  std::size_t r = local_begin;
  for (; row + 8 <= row_end; row += 8, r += 8) {
    const auto entry = [&](std::uint32_t e) {
      // Eight consecutive rows of the run: dictionary ids are contiguous
      // in the transposed slab, x operands are contiguous because the
      // column offset is shared.
      const __m128i ids16 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(ids_t + e * seg_rows + r));
      const __m256i idx = _mm256_cvtepu16_epi32(ids16);
      const __m512d dv = _mm512_i32gather_pd(idx, dictionary, 8);
      const __m512d xv = _mm512_loadu_pd(x + row + offsets[e]);
      return _mm512_mul_pd(dv, xv);
    };
    const __m512d v = combine_entries512(length, entry);
    _mm512_storeu_pd(out + row, v);
    if (weight != 0.0) {
      _mm512_storeu_pd(accum + row,
                       _mm512_add_pd(_mm512_loadu_pd(accum + row),
                                     _mm512_mul_pd(weight_v, v)));
    }
    delta_v = _mm512_max_pd(
        delta_v, _mm512_andnot_pd(
                     sign_mask, _mm512_sub_pd(v, _mm512_loadu_pd(x + row))));
  }
  for (; row < row_end; ++row, ++r) {
    const double v = uniform_row_scalar(length, offsets, ids_t, seg_rows, r,
                                        dictionary, x, row);
    out[row] = v;
    if (weight != 0.0) accum[row] += weight * v;
    delta = std::max(delta, std::abs(v - x[row]));
  }
  return std::max(delta, _mm512_reduce_max_pd(delta_v));
}

}  // namespace kibamrm::linalg::kernels::detail

#endif  // KIBAMRM_HAVE_AVX512_TIER
