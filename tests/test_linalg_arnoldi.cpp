// Tests for the Arnoldi factorisation behind the Krylov backend: the
// Arnoldi relation, basis orthonormality, happy breakdowns, and the
// row-span (mass window) overload.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "kibamrm/common/error.hpp"
#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/linalg/arnoldi.hpp"
#include "kibamrm/linalg/csr_matrix.hpp"
#include "kibamrm/linalg/dense_matrix.hpp"
#include "kibamrm/linalg/kernels.hpp"
#include "kibamrm/linalg/vector_ops.hpp"

namespace kibamrm::linalg {
namespace {

/// Deterministic dense test matrix with no special structure (a plain LCG
/// fill -- trigonometric fills like sin(ai + bj) are secretly low-rank and
/// break the Krylov space down early).
DenseReal test_matrix(std::size_t n) {
  DenseReal a(n, n);
  std::uint64_t state = 12345;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      a(i, j) = static_cast<double>(state >> 11) /
                    static_cast<double>(1ULL << 53) -
                0.5;
    }
  }
  return a;
}

ArnoldiMatvec dense_matvec(const DenseReal& a) {
  return [&a](const std::vector<double>& in, std::vector<double>& out) {
    const std::size_t n = a.rows();
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) acc += a(i, j) * in[j];
      out[i] = acc;
    }
  };
}

TEST(Arnoldi, RelationAndOrthonormalityHold) {
  const std::size_t n = 6;
  const std::size_t m = 4;
  const DenseReal a = test_matrix(n);

  std::vector<std::vector<double>> basis(m + 1,
                                         std::vector<double>(n, 0.0));
  basis[0][0] = 1.0;  // v1 = e_1
  DenseReal h(m + 1, m);
  const ArnoldiResult result = arnoldi(dense_matvec(a), basis, h, m, 1e-14);
  ASSERT_EQ(result.dim, m);
  EXPECT_FALSE(result.happy_breakdown);
  EXPECT_EQ(result.matvecs, m);

  // Orthonormal basis: V^T V = I to round-off.
  for (std::size_t i = 0; i <= m; ++i) {
    for (std::size_t j = 0; j <= m; ++j) {
      EXPECT_NEAR(dot(basis[i], basis[j]), i == j ? 1.0 : 0.0, 1e-12)
          << "i=" << i << " j=" << j;
    }
  }

  // Arnoldi relation A v_j = sum_{i <= j+1} h(i,j) v_i, column by column.
  std::vector<double> av(n, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    dense_matvec(a)(basis[j], av);
    std::vector<double> reconstructed(n, 0.0);
    for (std::size_t i = 0; i <= j + 1; ++i) {
      axpy(h(i, j), basis[i], reconstructed);
    }
    EXPECT_LT(linf_distance(av, reconstructed), 1e-12) << "column " << j;
  }
}

TEST(Arnoldi, HappyBreakdownOnInvariantSubspace) {
  // Block-diagonal matrix: starting inside the leading 2x2 block, the
  // Krylov space closes after two steps no matter how large m is.
  DenseReal a(5, 5);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 3.0;
  a(1, 1) = -1.0;
  for (std::size_t i = 2; i < 5; ++i) a(i, i) = 4.0;

  std::vector<std::vector<double>> basis(6, std::vector<double>(5, 0.0));
  basis[0][0] = 1.0;
  DenseReal h(6, 5);
  const ArnoldiResult result = arnoldi(dense_matvec(a), basis, h, 5, 1e-14);
  EXPECT_TRUE(result.happy_breakdown);
  EXPECT_EQ(result.dim, 2u);
}

TEST(Arnoldi, ImmediateBreakdownOnEigenvector) {
  const DenseReal a = DenseReal::identity(4).scaled(2.5);
  std::vector<std::vector<double>> basis(5, std::vector<double>(4, 0.0));
  basis[0][1] = 1.0;  // every vector is an eigenvector of 2.5 I
  DenseReal h(5, 4);
  const ArnoldiResult result = arnoldi(dense_matvec(a), basis, h, 4, 1e-14);
  EXPECT_TRUE(result.happy_breakdown);
  EXPECT_EQ(result.dim, 1u);
  EXPECT_NEAR(h(0, 0), 2.5, 1e-14);
}

TEST(Arnoldi, RejectsUndersizedArguments) {
  std::vector<std::vector<double>> basis(2, std::vector<double>(4, 0.0));
  DenseReal h(3, 2);
  EXPECT_THROW(arnoldi(dense_matvec(DenseReal::identity(4)), basis, h, 2,
                       1e-14),
               InvalidArgument);
}

// A banded matrix whose rows read at most three columns either side, so a
// vector that is zero outside chunks [b, e) of 512 rows maps to one that
// is zero outside [b - 1, e + 1).
CsrMatrix three_band_matrix(std::size_t n) {
  CooBuilder builder(n, n);
  std::uint64_t state = 99;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d <= 6; ++d) {
      if (i + d < 3 || i + d - 3 >= n) continue;
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      builder.add(i, i + d - 3,
                  static_cast<double>(state >> 11) /
                          static_cast<double>(1ULL << 53) -
                      0.5);
    }
  }
  return builder.build();
}

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

TEST(Arnoldi, WindowedFactorisationIsBitwiseTheFullOne) {
  // 64 chunks of 512 rows; the start vector lives on chunks [20, 44), so
  // the spans grow from 12288 rows (inline sweeps) past the 16384-row
  // pool threshold (sharded sweeps) within the factorisation.
  constexpr std::size_t kChunk = 512;
  const std::size_t n = 64 * kChunk;
  const std::size_t m = 8;
  const CsrMatrix a = three_band_matrix(n);
  std::vector<double> start(n, 0.0);
  std::uint64_t state = 7;
  for (std::size_t i = 20 * kChunk; i < 44 * kChunk; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    start[i] = static_cast<double>(state >> 11) /
               static_cast<double>(1ULL << 53);
  }
  scale(start, 1.0 / kernels::nrm2(start.data(), n));
  std::vector<RowSpan> spans;
  for (std::size_t j = 0; j <= m; ++j) {
    spans.push_back({(20 - j) * kChunk, (44 + j) * kChunk});
  }
  const ArnoldiMatvec full_matvec = [&](const std::vector<double>& in,
                                        std::vector<double>& out) {
    a.multiply_range(in, out, 0, n);
  };
  const ArnoldiSpanMatvec span_matvec = [&](const std::vector<double>& in,
                                            std::vector<double>& out,
                                            RowSpan rows) {
    a.multiply_range(in, out, rows.begin, rows.end);
  };

  for (const std::size_t lanes : {1u, 4u}) {
    SCOPED_TRACE(lanes);
    common::ThreadPool pool(lanes);
    std::vector<std::vector<double>> full(m + 1,
                                          std::vector<double>(n, 0.0));
    std::vector<std::vector<double>> windowed = full;
    full[0] = start;
    windowed[0] = start;
    DenseReal h_full(m + 1, m);
    DenseReal h_windowed(m + 1, m);
    const ArnoldiResult full_result =
        arnoldi(full_matvec, full, h_full, m, 1e-14, &pool);
    const ArnoldiResult windowed_result = arnoldi(
        span_matvec, spans, windowed, h_windowed, m, 1e-14, &pool);
    ASSERT_EQ(full_result.dim, m);
    ASSERT_EQ(windowed_result.dim, full_result.dim);
    EXPECT_EQ(windowed_result.happy_breakdown, full_result.happy_breakdown);
    for (std::size_t j = 0; j <= m; ++j) {
      EXPECT_EQ(std::memcmp(windowed[j].data(), full[j].data(),
                            n * sizeof(double)),
                0)
          << "basis vector " << j;
    }
    for (std::size_t i = 0; i <= m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_EQ(bits(h_windowed(i, j)), bits(h_full(i, j)))
            << "h(" << i << "," << j << ")";
      }
    }
  }
}

TEST(Arnoldi, RejectsSpansThatAreNotNestedOrBlockAligned) {
  const std::size_t n = 2048;
  const CsrMatrix a = three_band_matrix(n);
  const ArnoldiSpanMatvec matvec = [&](const std::vector<double>& in,
                                       std::vector<double>& out,
                                       RowSpan rows) {
    a.multiply_range(in, out, rows.begin, rows.end);
  };
  std::vector<std::vector<double>> basis(3, std::vector<double>(n, 0.0));
  basis[0][600] = 1.0;
  DenseReal h(3, 2);
  const std::vector<RowSpan> shrinking = {{512, 1024}, {512, 1024}, {512, 768}};
  EXPECT_THROW(arnoldi(matvec, shrinking, basis, h, 2, 1e-14),
               InvalidArgument);
  const std::vector<RowSpan> misaligned = {{512, 1024}, {500, 1024}, {0, n}};
  EXPECT_THROW(arnoldi(matvec, misaligned, basis, h, 2, 1e-14),
               InvalidArgument);
  const std::vector<RowSpan> too_few = {{512, 1024}, {0, n}};
  EXPECT_THROW(arnoldi(matvec, too_few, basis, h, 2, 1e-14),
               InvalidArgument);
}

}  // namespace
}  // namespace kibamrm::linalg
