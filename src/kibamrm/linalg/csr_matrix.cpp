#include "kibamrm/linalg/csr_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "kibamrm/common/error.hpp"

namespace kibamrm::linalg {

CooBuilder::CooBuilder(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {
  KIBAMRM_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
  KIBAMRM_REQUIRE(rows <= std::numeric_limits<std::uint32_t>::max() &&
                      cols <= std::numeric_limits<std::uint32_t>::max(),
                  "matrix dimensions exceed 32-bit index range");
}

void CooBuilder::add(std::size_t row, std::size_t col, double value) {
  KIBAMRM_REQUIRE(row < rows_ && col < cols_, "triplet out of bounds");
  if (value == 0.0) return;
  triplets_.push_back({static_cast<std::uint32_t>(row),
                       static_cast<std::uint32_t>(col), value});
}

CsrMatrix CooBuilder::build() {
  std::sort(triplets_.begin(), triplets_.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  CsrMatrix result(rows_, cols_);
  result.row_ptr_.assign(rows_ + 1, 0);
  result.col_idx_.reserve(triplets_.size());
  result.values_.reserve(triplets_.size());

  std::size_t i = 0;
  for (std::size_t row = 0; row < rows_; ++row) {
    while (i < triplets_.size() && triplets_[i].row == row) {
      const std::uint32_t col = triplets_[i].col;
      double value = 0.0;
      while (i < triplets_.size() && triplets_[i].row == row &&
             triplets_[i].col == col) {
        value += triplets_[i].value;
        ++i;
      }
      if (value != 0.0) {
        result.col_idx_.push_back(col);
        result.values_.push_back(value);
      }
    }
    result.row_ptr_[row + 1] = static_cast<std::uint32_t>(
        result.col_idx_.size());
  }

  triplets_.clear();
  triplets_.shrink_to_fit();
  return result;
}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {
  KIBAMRM_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
}

CsrMatrix CsrMatrix::from_rows(std::size_t rows, std::size_t cols,
                               std::vector<std::uint32_t> row_ptr,
                               std::vector<std::uint32_t> col_idx,
                               std::vector<double> values) {
  CsrMatrix result(rows, cols);
  KIBAMRM_REQUIRE(row_ptr.size() == rows + 1,
                  "from_rows: row_ptr must hold rows + 1 entries");
  KIBAMRM_REQUIRE(col_idx.size() == values.size(),
                  "from_rows: col_idx and values differ in length");
  KIBAMRM_REQUIRE(row_ptr.front() == 0 && row_ptr.back() == values.size(),
                  "from_rows: row_ptr must run from 0 to nnz");
  // Monotone first, so every row's entry range lies inside [0, nnz).
  for (std::size_t row = 0; row < rows; ++row) {
    KIBAMRM_REQUIRE(row_ptr[row] <= row_ptr[row + 1],
                    "from_rows: row_ptr is not monotone");
  }
  for (std::size_t row = 0; row < rows; ++row) {
    for (std::uint32_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k) {
      KIBAMRM_REQUIRE(col_idx[k] < cols, "from_rows: column out of range");
      KIBAMRM_REQUIRE(k == row_ptr[row] || col_idx[k - 1] < col_idx[k],
                      "from_rows: row columns unsorted or duplicated");
      KIBAMRM_REQUIRE(values[k] != 0.0, "from_rows: explicit zero stored");
    }
  }
  result.row_ptr_ = std::move(row_ptr);
  result.col_idx_ = std::move(col_idx);
  result.values_ = std::move(values);
  return result;
}

void CsrMatrix::multiply(const std::vector<double>& x,
                         std::vector<double>& out) const {
  KIBAMRM_REQUIRE(x.size() == cols_, "multiply: dimension mismatch");
  out.assign(rows_, 0.0);
  for (std::size_t row = 0; row < rows_; ++row) {
    double acc = 0.0;
    for (std::uint32_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    out[row] = acc;
  }
}

void CsrMatrix::multiply_range(const std::vector<double>& x,
                               std::vector<double>& out,
                               std::size_t row_begin,
                               std::size_t row_end) const {
  KIBAMRM_REQUIRE(x.size() == cols_, "multiply_range: dimension mismatch");
  KIBAMRM_REQUIRE(out.size() == rows_,
                  "multiply_range: output not pre-sized to rows()");
  KIBAMRM_REQUIRE(row_begin <= row_end && row_end <= rows_,
                  "multiply_range: invalid row range");
  for (std::size_t row = row_begin; row < row_end; ++row) {
    double acc = 0.0;
    for (std::uint32_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    out[row] = acc;
  }
}

void CsrMatrix::left_multiply(const std::vector<double>& pi,
                              std::vector<double>& out) const {
  KIBAMRM_REQUIRE(pi.size() == rows_, "left_multiply: dimension mismatch");
  out.assign(cols_, 0.0);
  for (std::size_t row = 0; row < rows_; ++row) {
    const double p = pi[row];
    if (p == 0.0) continue;  // transient vectors are mostly sparse early on
    for (std::uint32_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      out[col_idx_[k]] += p * values_[k];
    }
  }
}

double CsrMatrix::multiply_fused_range(const std::vector<double>& x,
                                       std::vector<double>& out,
                                       std::vector<double>& accum,
                                       double weight, std::size_t row_begin,
                                       std::size_t row_end) const {
  KIBAMRM_REQUIRE(rows_ == cols_,
                  "multiply_fused_range: matrix must be square");
  KIBAMRM_REQUIRE(x.size() == cols_, "multiply_fused_range: dimension "
                                     "mismatch");
  KIBAMRM_REQUIRE(out.size() == rows_ && accum.size() == rows_,
                  "multiply_fused_range: outputs not pre-sized to rows()");
  KIBAMRM_REQUIRE(row_begin <= row_end && row_end <= rows_,
                  "multiply_fused_range: invalid row range");
  // Generator rows of the expanded battery chains average ~3 stored
  // entries, so the row loop -- not the dot product -- is the hot path.
  // Dispatching on the row length removes the inner-loop control overhead
  // for the short rows that dominate; every case evaluates in one fixed
  // order, so the value does not depend on the shard partition.
  double delta = 0.0;
  for (std::size_t row = row_begin; row < row_end; ++row) {
    const std::uint32_t b = row_ptr_[row];
    const std::uint32_t e = row_ptr_[row + 1];
    double v;
    switch (e - b) {
      case 0:
        v = 0.0;
        break;
      case 1:
        v = values_[b] * x[col_idx_[b]];
        break;
      case 2:
        v = values_[b] * x[col_idx_[b]] + values_[b + 1] * x[col_idx_[b + 1]];
        break;
      case 3:
        v = values_[b] * x[col_idx_[b]] +
            values_[b + 1] * x[col_idx_[b + 1]] +
            values_[b + 2] * x[col_idx_[b + 2]];
        break;
      case 4:
        v = (values_[b] * x[col_idx_[b]] +
             values_[b + 1] * x[col_idx_[b + 1]]) +
            (values_[b + 2] * x[col_idx_[b + 2]] +
             values_[b + 3] * x[col_idx_[b + 3]]);
        break;
      default: {
        double s0 = 0.0;
        double s1 = 0.0;
        std::uint32_t k = b;
        for (; k + 2 <= e; k += 2) {
          s0 += values_[k] * x[col_idx_[k]];
          s1 += values_[k + 1] * x[col_idx_[k + 1]];
        }
        if (k < e) s0 += values_[k] * x[col_idx_[k]];
        v = s0 + s1;
      }
    }
    out[row] = v;
    if (weight != 0.0) accum[row] += weight * v;
    delta = std::max(delta, std::abs(v - x[row]));
  }
  return delta;
}

std::vector<double> CsrMatrix::row_sums() const {
  std::vector<double> sums(rows_, 0.0);
  for (std::size_t row = 0; row < rows_; ++row) {
    double acc = 0.0;
    for (std::uint32_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      acc += values_[k];
    }
    sums[row] = acc;
  }
  return sums;
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  KIBAMRM_REQUIRE(row < rows_ && col < cols_, "at: index out of bounds");
  const auto begin = col_idx_.begin() + row_ptr_[row];
  const auto end = col_idx_.begin() + row_ptr_[row + 1];
  const auto it = std::lower_bound(begin, end, static_cast<std::uint32_t>(col));
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

CsrMatrix CsrMatrix::scaled(double alpha) const {
  CsrMatrix result = *this;
  for (double& v : result.values_) v *= alpha;
  return result;
}

double CsrMatrix::max_exit_rate() const {
  KIBAMRM_REQUIRE(rows_ == cols_, "max_exit_rate: matrix must be square");
  double worst = 0.0;
  for (std::size_t row = 0; row < rows_; ++row) {
    worst = std::max(worst, -at(row, row));
  }
  return worst;
}

CsrMatrix CsrMatrix::uniformized(double q) const {
  KIBAMRM_REQUIRE(rows_ == cols_, "uniformized: matrix must be square");
  KIBAMRM_REQUIRE(q > 0.0, "uniformisation rate must be positive");
  const double max_exit = max_exit_rate();
  KIBAMRM_REQUIRE(q * (1.0 + 1e-12) >= max_exit,
                  "uniformisation rate below the maximal exit rate");

  // P = I + Q/q.  The diagonal of Q may be absent in the sparsity pattern
  // (isolated/absorbing states), so rebuild through a COO pass.
  CooBuilder builder(rows_, cols_);
  builder.reserve(nonzeros() + rows_);
  for (std::size_t row = 0; row < rows_; ++row) {
    builder.add(row, row, 1.0);
    for (std::uint32_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      builder.add(row, col_idx_[k], values_[k] / q);
    }
  }
  CsrMatrix p = builder.build();
  // Clamp diagonal round-off: entries must stay within [0, 1].
  for (std::size_t row = 0; row < p.rows_; ++row) {
    for (std::uint32_t k = p.row_ptr_[row]; k < p.row_ptr_[row + 1]; ++k) {
      if (p.col_idx_[k] == row) {
        p.values_[k] = std::clamp(p.values_[k], 0.0, 1.0);
      }
    }
  }
  return p;
}

CsrMatrix CsrMatrix::transposed() const {
  CooBuilder builder(cols_, rows_);
  builder.reserve(nonzeros());
  for (std::size_t row = 0; row < rows_; ++row) {
    for (std::uint32_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      builder.add(col_idx_[k], row, values_[k]);
    }
  }
  return builder.build();
}

std::vector<std::uint32_t> CsrMatrix::reachable_rows(
    std::span<const std::uint32_t> seeds) const {
  KIBAMRM_REQUIRE(rows_ == cols_, "reachable_rows: matrix must be square");
  std::vector<std::uint8_t> seen(rows_, 0);
  std::vector<std::uint32_t> frontier;  // doubles as the visited list
  frontier.reserve(seeds.size());
  for (const std::uint32_t seed : seeds) {
    KIBAMRM_REQUIRE(seed < rows_, "reachable_rows: seed out of range");
    if (!seen[seed]) {
      seen[seed] = 1;
      frontier.push_back(seed);
    }
  }
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const std::uint32_t row = frontier[head];
    for (std::uint32_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      const std::uint32_t col = col_idx_[k];
      if (!seen[col]) {
        seen[col] = 1;
        frontier.push_back(col);
      }
    }
  }
  std::sort(frontier.begin(), frontier.end());
  return frontier;
}

CsrMatrix CsrMatrix::transposed_submatrix(
    std::span<const std::uint32_t> keep) const {
  KIBAMRM_REQUIRE(rows_ == cols_,
                  "transposed_submatrix: matrix must be square");
  KIBAMRM_REQUIRE(!keep.empty(), "transposed_submatrix: empty row set");
  constexpr std::uint32_t kDropped = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> compact(rows_, kDropped);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    KIBAMRM_REQUIRE(keep[i] < rows_ && (i == 0 || keep[i] > keep[i - 1]),
                    "transposed_submatrix: keep must be sorted, unique and "
                    "in range");
    compact[keep[i]] = static_cast<std::uint32_t>(i);
  }
  std::size_t surviving = 0;
  for (const std::uint32_t row : keep) {
    for (std::uint32_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      if (compact[col_idx_[k]] != kDropped) ++surviving;
    }
  }
  CooBuilder builder(keep.size(), keep.size());
  builder.reserve(surviving);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const std::uint32_t row = keep[i];
    for (std::uint32_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      const std::uint32_t col = compact[col_idx_[k]];
      if (col != kDropped) {
        builder.add(col, i, values_[k]);
      }
    }
  }
  return builder.build();
}

}  // namespace kibamrm::linalg
