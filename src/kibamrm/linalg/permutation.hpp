// State-reordering permutations for the expanded battery chains.
//
// The gather kernels' SIMD row grouping needs *runs* of consecutive
// equal-length rows, and the compressed plan layout needs column offsets
// within int16 of the row -- both are properties of the state numbering,
// not of the chain.  The natural numbering of core/expanded_ctmc keeps
// the workload state innermost, which alternates row structure every
// other row and defeats grouping entirely; the level-major renumbering
// exposes the banded structure the kernels want.  This header is the
// permutation algebra renumberings use: build, apply, invert, compose --
// including composition with the reachable-closure compaction, which is
// itself just an (injective) index map.
//
// Convention: a Permutation stores new_of_old, i.e. p[i] is the new index
// of old state i.  apply() moves data old -> new (out[p[i]] = in[i]);
// apply_inverse() moves it back.  Permuting a matrix symmetric-permutes
// rows and columns together, so a generator stays a generator and row
// sums are untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kibamrm/linalg/csr_matrix.hpp"

namespace kibamrm::linalg {

class Permutation {
 public:
  /// The empty permutation (size 0); also what a default member is.
  Permutation() = default;

  /// Adopts and validates new_of_old: must be a bijection on
  /// {0, ..., n-1}; throws InvalidArgument otherwise.
  explicit Permutation(std::vector<std::uint32_t> new_of_old);

  static Permutation identity(std::size_t n);

  std::size_t size() const { return new_of_old_.size(); }
  bool empty() const { return new_of_old_.empty(); }

  /// New index of old state i.
  std::uint32_t operator[](std::size_t old_index) const {
    return new_of_old_[old_index];
  }

  /// True iff p[i] == i for all i (the cheap fast-path test; an empty
  /// permutation counts as identity).
  bool is_identity() const;

  Permutation inverse() const;

  /// Composition "this, then other": result[i] = other[(*this)[i]].
  /// Sizes must match.
  Permutation then(const Permutation& other) const;

  /// out[p[i]] = v[i] -- data follows the states to their new indices.
  std::vector<double> apply(const std::vector<double>& v) const;

  /// out[i] = v[p[i]] -- the inverse move, back to the old numbering.
  std::vector<double> apply_inverse(const std::vector<double>& v) const;

  /// Symmetric permutation B(p[i], p[j]) = A(i, j) of a square matrix.
  CsrMatrix permuted(const CsrMatrix& matrix) const;

 private:
  std::vector<std::uint32_t> new_of_old_;
};

/// Structure metrics of a sparse matrix that decide which gather kernels
/// can win on it: the band width the compressed plan must represent and
/// the equal-length row runs the SIMD grouping consumes.
struct StructureStats {
  /// max |col - row| over stored entries.
  std::uint64_t bandwidth = 0;
  /// Rows of the matrix.
  std::uint64_t rows = 0;
  /// Rows inside maximal runs of >= 4 consecutive equal-length rows --
  /// the rows a 4-wide grouped gather kernel can take.
  std::uint64_t groupable_rows = 0;
  /// Length of the longest such run.
  std::uint64_t longest_uniform_run = 0;
  /// Rows whose entire column-offset pattern (col - row, per entry)
  /// repeats the previous row's -- "diagonal runs", the structure an
  /// level-banded numbering produces in bulk.  Inside one, entry e of
  /// consecutive rows reads consecutive x addresses, which is what the
  /// uniform-segment SIMD kernels and the software-prefetch heuristic
  /// key on; unlike groupable_rows this requires identical offsets, not
  /// just equal lengths.
  std::uint64_t diagonal_rows = 0;
  /// Length of the longest diagonal run (counting its first row).
  std::uint64_t longest_diagonal_run = 0;

  /// groupable_rows / rows (0 for an empty matrix).
  double groupable_fraction() const {
    return rows == 0 ? 0.0
                     : static_cast<double>(groupable_rows) /
                           static_cast<double>(rows);
  }
};

StructureStats structure_stats(const CsrMatrix& matrix);

}  // namespace kibamrm::linalg
