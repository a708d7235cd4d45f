// Reward-level discretisation grid (Sec. 5.1).
//
// The uncountable state space S x [0, u1] x [0, u2] is broken down to
// S x {0, ..., u1/Delta} x {0, ..., u2/Delta}.  A level j stands for the
// reward interval (j Delta, (j+1) Delta] (left-closed at j = 0); the battery
// is empty in the j1 = 0 layer.  For single-well models (c = 1, k = 0 or no
// bound charge) only Y1 is discretised, reproducing the paper's state count
// (2882 states for the on/off model at Delta = 5, Sec. 6.1).
#pragma once

#include <cstddef>

#include "kibamrm/core/kibamrm_model.hpp"

namespace kibamrm::core {

class LevelGrid {
 public:
  /// Builds the grid for `model` with step `delta`.  Both reward bounds
  /// must be integer multiples of delta (to 1e-6 relative), like all the
  /// paper's configurations; throws InvalidArgument otherwise.
  LevelGrid(const KibamRmModel& model, double delta);

  double delta() const { return delta_; }

  /// Number of levels of the available well, u1/Delta (levels 0..L1).
  std::size_t available_levels() const { return l1_; }
  /// Number of levels of the bound well, u2/Delta (levels 0..L2; 0 for
  /// single-well models).
  std::size_t bound_levels() const { return l2_; }

  std::size_t workload_states() const { return n_; }

  /// Total expanded state count N * (L1 + 1) * (L2 + 1).
  std::size_t state_count() const { return n_ * (l1_ + 1) * (l2_ + 1); }

  /// Flat index of (workload state i, level j1, level j2).
  std::size_t index(std::size_t i, std::size_t j1, std::size_t j2) const {
    return (j1 * (l2_ + 1) + j2) * n_ + i;
  }

  /// Grid coordinates of a flat index; the inverse of index().
  struct Coordinates {
    std::size_t i;
    std::size_t j1;
    std::size_t j2;
  };
  Coordinates coordinates(std::size_t flat) const {
    const std::size_t pair = flat / n_;
    return {flat % n_, pair / (l2_ + 1), pair % (l2_ + 1)};
  }

  /// Initial levels: the reward a lies in (j Delta, (j+1) Delta].
  std::size_t initial_available_level() const { return j1_init_; }
  std::size_t initial_bound_level() const { return j2_init_; }

 private:
  double delta_;
  std::size_t n_;
  std::size_t l1_;
  std::size_t l2_;
  std::size_t j1_init_;
  std::size_t j2_init_;
};

}  // namespace kibamrm::core
