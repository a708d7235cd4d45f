#include "kibamrm/core/expanded_ctmc.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "kibamrm/common/error.hpp"

namespace kibamrm::core {

StateOrdering parse_state_ordering(std::string_view name) {
  if (name == "none") return StateOrdering::kNone;
  if (name == "level") return StateOrdering::kLevel;
  throw InvalidArgument("unknown state ordering '" + std::string(name) +
                        "'; choices: none level");
}

std::string_view state_ordering_name(StateOrdering ordering) {
  return ordering == StateOrdering::kLevel ? "level" : "none";
}

namespace {

/// The level-major renumbering: a level axis becomes the innermost index
/// so consecutive states differ by one level step and the transposed
/// transition matrix gets its equal-length row runs.  Two-well grids put
/// j2 innermost with the workload state between the wells -- every
/// transition family then lands within n*(L2+1)+1 of the diagonal, the
/// same bandwidth as the natural order, but with runs of ~L2 rows.
/// Single-well grids (L2 = 0) put j1 innermost instead; the workload
/// stride L1+1 stays far inside the compressed plan's int16 offset
/// budget for every paper configuration.
linalg::Permutation level_major_permutation(const LevelGrid& grid) {
  const std::size_t n = grid.workload_states();
  const std::size_t l1 = grid.available_levels();
  const std::size_t l2 = grid.bound_levels();
  std::vector<std::uint32_t> new_of_old(grid.state_count());
  for (std::size_t j1 = 0; j1 <= l1; ++j1) {
    for (std::size_t j2 = 0; j2 <= l2; ++j2) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t target =
            l2 > 0 ? (j1 * n + i) * (l2 + 1) + j2 : i * (l1 + 1) + j1;
        new_of_old[grid.index(i, j1, j2)] =
            static_cast<std::uint32_t>(target);
      }
    }
  }
  return linalg::Permutation(std::move(new_of_old));
}

}  // namespace

std::size_t ExpandedChain::state(std::size_t i, std::size_t j1,
                                 std::size_t j2) const {
  return permutation[grid.index(i, j1, j2)];
}

double ExpandedChain::empty_probability(const std::vector<double>& pi) const {
  KIBAMRM_REQUIRE(pi.size() == grid.state_count(),
                  "empty_probability: distribution size mismatch");
  double total = 0.0;
  for (std::size_t j2 = 0; j2 <= grid.bound_levels(); ++j2) {
    for (std::size_t i = 0; i < grid.workload_states(); ++i) {
      total += pi[state(i, 0, j2)];
    }
  }
  return total;
}

std::vector<double> ExpandedChain::to_grid_order(
    const std::vector<double>& pi) const {
  if (ordering == StateOrdering::kNone) return pi;
  return permutation.apply_inverse(pi);
}

ExpandedChain build_expanded_chain(const KibamRmModel& model, double delta,
                                   StateOrdering ordering) {
  const LevelGrid grid(model, delta);
  const std::size_t n = grid.workload_states();
  const std::size_t l1 = grid.available_levels();
  const std::size_t l2 = grid.bound_levels();
  const std::size_t states = grid.state_count();
  const double c = model.battery().available_fraction;
  const double k = model.battery().flow_constant;
  KIBAMRM_REQUIRE(states <= std::numeric_limits<std::uint32_t>::max(),
                  "expanded chain exceeds the 32-bit state index range");

  const auto& q = model.workload().chain().generator();
  const auto q_row_ptr = q.row_pointers();
  const auto q_col_idx = q.column_indices();
  const auto q_values = q.values();

  // The chain is emitted directly in its final numbering: rows in
  // ascending chain index, each row's entries sorted by chain column, so
  // the CSR arrays need neither a triplet sort nor a renumbering pass.
  linalg::Permutation permutation =
      ordering == StateOrdering::kLevel
          ? level_major_permutation(grid)
          : linalg::Permutation::identity(states);
  const linalg::Permutation grid_of_chain = permutation.inverse();

  std::vector<std::uint32_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
  row_ptr.reserve(states + 1);
  row_ptr.push_back(0);
  // Entry-count bound: only non-absorbing states (j1 >= 1, i.e.
  // l1 * (l2 + 1) level pairs) emit entries, each at most its workload
  // state's off-diagonals in Q, consumption when it draws current, one
  // transfer and the rebuilt diagonal.  One reserve avoids reallocation
  // spikes on the multi-million-entry generators of small Delta.
  std::size_t entries_per_level_pair = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint32_t e = q_row_ptr[i]; e < q_row_ptr[i + 1]; ++e) {
      if (q_col_idx[e] != i) ++entries_per_level_pair;
    }
    entries_per_level_pair += model.workload().current(i) > 0.0 ? 3 : 2;
  }
  const std::size_t entry_bound = l1 * (l2 + 1) * entries_per_level_pair;
  col_idx.reserve(entry_bound);
  values.reserve(entry_bound);

  std::vector<std::pair<std::uint32_t, double>> row;
  const auto emit = [&](std::size_t i, std::size_t j1, std::size_t j2,
                        double rate) {
    row.emplace_back(permutation[grid.index(i, j1, j2)], rate);
  };

  for (std::size_t state = 0; state < states; ++state) {
    const auto [i, j1, j2] = grid.coordinates(grid_of_chain[state]);
    row.clear();
    if (j1 > 0) {  // j1 = 0 is absorbing
      double exit = 0.0;

      // 1. Workload transitions at the same reward levels; a rate
      // modifier makes this the reward-inhomogeneous Q(y1, y2) of
      // Sec. 4.1, evaluated at the level representatives.
      for (std::uint32_t e = q_row_ptr[i]; e < q_row_ptr[i + 1]; ++e) {
        const std::size_t target = q_col_idx[e];
        if (target == i) continue;  // diagonal rebuilt below
        double rate = q_values[e];
        if (model.has_rate_modifier()) {
          const double factor = model.rate_modifier()(
              i, target, static_cast<double>(j1) * delta,
              static_cast<double>(j2) * delta);
          KIBAMRM_REQUIRE(
              factor >= 0.0 &&
                  factor <= model.rate_modifier_bound() * (1.0 + 1e-12),
              "rate modifier returned a value outside [0, bound]");
          rate *= factor;
        }
        if (rate > 0.0) {
          emit(target, j1, j2, rate);
          exit += rate;
        }
      }

      // 2. Consumption of energy: one level down in the available well.
      const double current = model.workload().current(i);
      if (current > 0.0) {
        const double rate = current / delta;
        emit(i, j1 - 1, j2, rate);
        exit += rate;
      }

      // 3. Charge flow from the bound well to the available well at
      // rate k (h2 - h1)/Delta = k (j2/(1-c) - j1/c), when positive.
      if (k > 0.0 && l2 > 0 && j2 > 0 && j1 < l1) {
        const double height_diff = static_cast<double>(j2) / (1.0 - c) -
                                   static_cast<double>(j1) / c;
        if (height_diff > 0.0) {
          const double transfer = k * height_diff;
          emit(i, j1 + 1, j2 - 1, transfer);
          exit += transfer;
        }
      }

      if (exit > 0.0) emit(i, j1, j2, -exit);
    }
    // The targets are distinct states, so sorting by column is the whole
    // of the CSR row invariant.
    std::sort(row.begin(), row.end());
    for (const auto& [column, rate] : row) {
      col_idx.push_back(column);
      values.push_back(rate);
    }
    row_ptr.push_back(static_cast<std::uint32_t>(col_idx.size()));
  }

  std::vector<double> initial(states, 0.0);
  const auto& alpha = model.workload().initial_distribution();
  for (std::size_t i = 0; i < n; ++i) {
    initial[permutation[grid.index(i, grid.initial_available_level(),
                                   grid.initial_bound_level())]] = alpha[i];
  }

  linalg::CsrMatrix generator = linalg::CsrMatrix::from_rows(
      states, states, std::move(row_ptr), std::move(col_idx),
      std::move(values));
  return ExpandedChain{grid, markov::Ctmc(std::move(generator)),
                       std::move(initial), std::move(permutation), ordering};
}

}  // namespace kibamrm::core
