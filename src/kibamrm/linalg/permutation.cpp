#include "kibamrm/linalg/permutation.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "kibamrm/common/error.hpp"

namespace kibamrm::linalg {

Permutation::Permutation(std::vector<std::uint32_t> new_of_old)
    : new_of_old_(std::move(new_of_old)) {
  KIBAMRM_REQUIRE(
      new_of_old_.size() <= std::numeric_limits<std::uint32_t>::max(),
      "Permutation: size exceeds uint32 index space");
  std::vector<std::uint8_t> seen(new_of_old_.size(), 0);
  for (const std::uint32_t target : new_of_old_) {
    KIBAMRM_REQUIRE(target < new_of_old_.size() && !seen[target],
                    "Permutation: mapping is not a bijection");
    seen[target] = 1;
  }
}

Permutation Permutation::identity(std::size_t n) {
  std::vector<std::uint32_t> map(n);
  std::iota(map.begin(), map.end(), 0u);
  Permutation p;
  p.new_of_old_ = std::move(map);  // trivially a bijection; skip the check
  return p;
}

bool Permutation::is_identity() const {
  for (std::size_t i = 0; i < new_of_old_.size(); ++i) {
    if (new_of_old_[i] != i) return false;
  }
  return true;
}

Permutation Permutation::inverse() const {
  std::vector<std::uint32_t> inv(new_of_old_.size());
  for (std::size_t i = 0; i < new_of_old_.size(); ++i) {
    inv[new_of_old_[i]] = static_cast<std::uint32_t>(i);
  }
  Permutation p;
  p.new_of_old_ = std::move(inv);  // inverse of a bijection is one
  return p;
}

Permutation Permutation::then(const Permutation& other) const {
  KIBAMRM_REQUIRE(size() == other.size(),
                  "Permutation::then: size mismatch");
  std::vector<std::uint32_t> composed(new_of_old_.size());
  for (std::size_t i = 0; i < new_of_old_.size(); ++i) {
    composed[i] = other.new_of_old_[new_of_old_[i]];
  }
  Permutation p;
  p.new_of_old_ = std::move(composed);
  return p;
}

std::vector<double> Permutation::apply(const std::vector<double>& v) const {
  KIBAMRM_REQUIRE(v.size() == size(), "Permutation::apply: size mismatch");
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[new_of_old_[i]] = v[i];
  return out;
}

std::vector<double> Permutation::apply_inverse(
    const std::vector<double>& v) const {
  KIBAMRM_REQUIRE(v.size() == size(),
                  "Permutation::apply_inverse: size mismatch");
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[new_of_old_[i]];
  return out;
}

CsrMatrix Permutation::permuted(const CsrMatrix& matrix) const {
  KIBAMRM_REQUIRE(matrix.rows() == matrix.cols(),
                  "Permutation::permuted: matrix must be square");
  KIBAMRM_REQUIRE(matrix.rows() == size(),
                  "Permutation::permuted: dimension mismatch");
  const auto row_ptr = matrix.row_pointers();
  const auto col_idx = matrix.column_indices();
  const auto values = matrix.values();

  // Distinct source coordinates stay distinct under a bijection, so the
  // builder's duplicate merge never fires; its sort restores the CSR
  // invariants for the renumbered coordinates.  One-time cost at chain
  // build; the hot loops never permute.
  CooBuilder builder(size(), size());
  builder.reserve(matrix.nonzeros());
  for (std::size_t row = 0; row < size(); ++row) {
    const std::uint32_t new_row = new_of_old_[row];
    for (std::uint32_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
      builder.add(new_row, new_of_old_[col_idx[k]], values[k]);
    }
  }
  return builder.build();
}

StructureStats structure_stats(const CsrMatrix& matrix) {
  const auto row_ptr = matrix.row_pointers();
  const auto col_idx = matrix.column_indices();
  StructureStats stats;
  stats.rows = matrix.rows();
  for (std::size_t row = 0; row < matrix.rows(); ++row) {
    for (std::uint32_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
      const std::uint64_t distance =
          col_idx[k] >= row ? col_idx[k] - row : row - col_idx[k];
      stats.bandwidth = std::max(stats.bandwidth, distance);
    }
  }
  // Maximal runs of consecutive equal-length rows; runs of >= 4 are what
  // the grouped gather kernels consume.
  std::size_t row = 0;
  while (row < matrix.rows()) {
    const std::uint32_t length = row_ptr[row + 1] - row_ptr[row];
    std::size_t end = row + 1;
    while (end < matrix.rows() &&
           row_ptr[end + 1] - row_ptr[end] == length) {
      ++end;
    }
    const std::uint64_t run = end - row;
    if (run >= 4) stats.groupable_rows += run;
    stats.longest_uniform_run = std::max(stats.longest_uniform_run, run);
    row = end;
  }
  // Diagonal runs: rows repeating the previous row's full offset pattern.
  std::uint64_t current_run = matrix.rows() > 0 ? 1 : 0;
  for (std::size_t r = 1; r < matrix.rows(); ++r) {
    const std::uint32_t length = row_ptr[r + 1] - row_ptr[r];
    bool repeats = length == row_ptr[r] - row_ptr[r - 1];
    if (repeats) {
      const std::uint32_t k0 = row_ptr[r - 1];
      const std::uint32_t k1 = row_ptr[r];
      for (std::uint32_t e = 0; e < length; ++e) {
        if (static_cast<std::int64_t>(col_idx[k0 + e]) -
                static_cast<std::int64_t>(r - 1) !=
            static_cast<std::int64_t>(col_idx[k1 + e]) -
                static_cast<std::int64_t>(r)) {
          repeats = false;
          break;
        }
      }
    }
    if (repeats) {
      ++stats.diagonal_rows;
      ++current_run;
      stats.longest_diagonal_run =
          std::max(stats.longest_diagonal_run, current_run);
    } else {
      current_run = 1;
    }
  }
  return stats;
}

}  // namespace kibamrm::linalg
