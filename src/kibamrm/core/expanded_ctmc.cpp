#include "kibamrm/core/expanded_ctmc.hpp"

#include <utility>

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

double ExpandedChain::empty_probability(const std::vector<double>& pi) const {
  KIBAMRM_REQUIRE(pi.size() == grid.state_count(),
                  "empty_probability: distribution size mismatch");
  double total = 0.0;
  if (ordering == StateOrdering::kNone) {
    for (std::size_t j2 = 0; j2 <= grid.bound_levels(); ++j2) {
      for (std::size_t i = 0; i < grid.workload_states(); ++i) {
        total += pi[grid.index(i, 0, j2)];
      }
    }
    return total;
  }
  for (std::size_t j2 = 0; j2 <= grid.bound_levels(); ++j2) {
    for (std::size_t i = 0; i < grid.workload_states(); ++i) {
      total += pi[permutation[grid.index(i, 0, j2)]];
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
  const double c = model.battery().available_fraction;
  const double k = model.battery().flow_constant;

  const auto& q = model.workload().chain().generator();
  const auto q_row_ptr = q.row_pointers();
  const auto q_col_idx = q.column_indices();
  const auto q_values = q.values();

  linalg::CooBuilder builder(grid.state_count(), grid.state_count());
  // Exact triplet-count bound: only non-absorbing states (j1 >= 1, i.e.
  // l1 * (l2 + 1) level pairs) emit entries.  Summed over the workload
  // states of one level pair that is at most every off-diagonal of Q
  // (<= nonzeros) plus consumption, transfer and the rebuilt diagonal per
  // state.  A single exact-size reserve avoids reallocation spikes on the
  // multi-million-entry generators of small Delta.
  builder.reserve(l1 * (l2 + 1) * (q.nonzeros() + 3 * n));

  for (std::size_t j1 = 1; j1 <= l1; ++j1) {  // j1 = 0 is absorbing
    for (std::size_t j2 = 0; j2 <= l2; ++j2) {
      // Transfer rate from the bound well at this level pair:
      // k (h2 - h1)/Delta = k (j2/(1-c) - j1/c).
      double transfer = 0.0;
      if (k > 0.0 && l2 > 0 && j2 > 0 && j1 < l1) {
        const double height_diff = static_cast<double>(j2) / (1.0 - c) -
                                   static_cast<double>(j1) / c;
        if (height_diff > 0.0) transfer = k * height_diff;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t from = grid.index(i, j1, j2);
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
            builder.add(from, grid.index(target, j1, j2), rate);
            exit += rate;
          }
        }

        // 2. Consumption of energy: one level down in the available well.
        const double current = model.workload().current(i);
        if (current > 0.0) {
          const double rate = current / delta;
          builder.add(from, grid.index(i, j1 - 1, j2), rate);
          exit += rate;
        }

        // 3. Charge flow from the bound well to the available well.
        if (transfer > 0.0) {
          builder.add(from, grid.index(i, j1 + 1, j2 - 1), transfer);
          exit += transfer;
        }

        if (exit > 0.0) builder.add(from, from, -exit);
      }
    }
  }

  std::vector<double> initial(grid.state_count(), 0.0);
  const auto& alpha = model.workload().initial_distribution();
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha[i] != 0.0) {
      initial[grid.index(i, grid.initial_available_level(),
                         grid.initial_bound_level())] = alpha[i];
    }
  }

  linalg::CsrMatrix generator = builder.build();

  // Renumber at build time: a symmetric permutation of the generator is
  // the same chain (row sums, rates and absorbing layers all carried
  // along), so every backend solves it unchanged; only the memory layout
  // of the hot loops differs.  The permutation rides in the result so
  // distributions map back to grid coordinates.
  linalg::Permutation permutation =
      ordering == StateOrdering::kLevel
          ? level_major_permutation(grid)
          : linalg::Permutation::identity(grid.state_count());
  if (ordering != StateOrdering::kNone) {
    generator = permutation.permuted(generator);
    initial = permutation.apply(initial);
  }

  return ExpandedChain{grid, markov::Ctmc(std::move(generator)),
                       std::move(initial), std::move(permutation), ordering};
}

}  // namespace kibamrm::core
