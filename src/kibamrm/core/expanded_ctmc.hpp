// The expanded pure CTMC Q* of the Markovian approximation (Sec. 5.2).
//
// Three transition families over states (i, j1, j2):
//
//  1. workload transitions   (i,j1,j2) -> (i',j1,j2)    rate Q_{i,i'}
//  2. energy consumption     (i,j1,j2) -> (i,j1-1,j2)   rate I_i / Delta
//  3. bound->available flow  (i,j1,j2) -> (i,j1+1,j2-1)
//                            rate k (j2/(1-c) - j1/c)   when positive
//
// The j1 = 0 layer ("battery empty") is absorbing: the lifetime is the
// *first* time the available charge hits zero, so no recovery is allowed
// from there (Sec. 5.2).  The approximated quantity of interest is
//     Pr{battery empty at t}  ~=  sum_i sum_{j2} pi_{(i,0,j2)}(t).
//
// State ordering: LevelGrid's natural numbering keeps the workload state
// innermost, which interleaves the three transition families and leaves
// the transposed transition matrix without any runs of equal-length rows
// -- the structure the SIMD gather kernels group on.  build_expanded_chain
// therefore numbers the states level-major by default (StateOrdering):
// "level" moves a level axis innermost so consecutive states differ by one
// level step (long uniform runs, same bandwidth), which roughly halves the
// time per uniformisation step.  The chain is emitted directly in that
// numbering; "none" keeps the natural numbering for comparison.  The
// permutation is carried in the ExpandedChain, and state() / to_grid_order
// map chain-order distributions back to grid coordinates; solved curves
// are invariant under any ordering (the chain is the same chain).
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "kibamrm/core/level_grid.hpp"
#include "kibamrm/linalg/permutation.hpp"
#include "kibamrm/markov/ctmc.hpp"

namespace kibamrm::core {

/// State numbering of the expanded chain.
enum class StateOrdering {
  kNone,   ///< LevelGrid's natural numbering (workload state innermost)
  kLevel,  ///< level-major: a level axis innermost, workload state outer
};

/// Parses "none" / "level"; throws InvalidArgument otherwise.
StateOrdering parse_state_ordering(std::string_view name);

std::string_view state_ordering_name(StateOrdering ordering);

/// The derived chain together with its grid, initial distribution and the
/// state permutation relating chain indices to grid indices.
struct ExpandedChain {
  LevelGrid grid;
  markov::Ctmc chain;
  /// Initial distribution alpha*, in chain (permuted) order.
  std::vector<double> initial;
  /// Grid index -> chain state index; identity for StateOrdering::kNone.
  linalg::Permutation permutation;
  StateOrdering ordering = StateOrdering::kLevel;

  /// Chain index of grid state (i, j1, j2): the index to read generator
  /// rows/columns and chain-order distributions at, under any ordering.
  std::size_t state(std::size_t i, std::size_t j1, std::size_t j2) const;

  /// Pr{battery empty} under a transient distribution of `chain` (given
  /// in chain order, as the backends produce it).
  double empty_probability(const std::vector<double>& pi) const;

  /// Inverse-permutes a chain-order distribution back to grid order, so
  /// pi_grid[grid.index(i, j1, j2)] addresses it; pass-through for the
  /// natural ordering.
  std::vector<double> to_grid_order(const std::vector<double>& pi) const;
};

/// Builds Q*, the initial distribution alpha*, and the grid for the given
/// model and step size, with states numbered per `ordering`.
ExpandedChain build_expanded_chain(const KibamRmModel& model, double delta,
                                   StateOrdering ordering =
                                       StateOrdering::kLevel);

}  // namespace kibamrm::core
