// Domain generators for the property suites: random CTMCs in four
// structural families, random battery+workload scenario configurations,
// and random time grids -- each with shrinking toward a minimal failing
// case (fewer states, fewer time points, rounder rates).
//
// Family semantics (what each one stresses):
//   kErgodic         irreducible chains (a ring backbone plus random extra
//                    edges) -- the steady-state detection and the long-t
//                    behaviour of every backend
//   kAbsorbing       one absorbing state every other state can reach --
//                    the structure of the expanded battery chains (the
//                    j1 = 0 layer) and the identity-row fast paths
//   kStiff           rates spread over up to 8 decades -- the Poisson
//                    window blow-up and the Krylov sub-step splitting
//   kNearDegenerate  two internally-fast blocks coupled by ~1e-9-relative
//                    rates -- near-reducible spectra, the hard case for
//                    steady-state detection and for expm conditioning
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kibamrm/common/random.hpp"
#include "kibamrm/core/kibamrm_model.hpp"
#include "kibamrm/markov/ctmc.hpp"
#include "property/propgen.hpp"

namespace kibamrm::prop {

enum class CtmcFamily {
  kErgodic,
  kAbsorbing,
  kStiff,
  kNearDegenerate,
};

std::string_view ctmc_family_name(CtmcFamily family);

/// One generated transient-solve case: a dense rate specification (kept
/// dense so shrinking can delete states and zero entries directly), an
/// initial distribution and a sorted positive time grid.
struct CtmcCase {
  CtmcFamily family = CtmcFamily::kErgodic;
  /// Off-diagonal transition rates; rates[i][i] is ignored (derived).
  std::vector<std::vector<double>> rates;
  std::vector<double> initial;
  std::vector<double> times;

  std::size_t states() const { return rates.size(); }

  /// Validated chain (diagonals derived from the off-diagonal rates).
  markov::Ctmc chain() const;
};

/// Knobs the individual properties tune: the uniformisation backends do
/// q_max * t_max DTMC steps per solve, so properties that run them keep
/// `max_rate_time_product` modest, while the Krylov/dense stiff property
/// raises `stiff_decades` instead.
struct CtmcGenOptions {
  CtmcFamily family = CtmcFamily::kErgodic;
  std::size_t min_states = 2;
  std::size_t max_states = 10;
  std::size_t max_time_points = 5;
  /// Cap on max_exit_rate * times.back() -- the uniformisation step count.
  double max_rate_time_product = 2000.0;
  /// Stiff family: rates span up to 10^stiff_decades.
  double stiff_decades = 6.0;
  /// Probability of a random initial distribution instead of a unit vector.
  double random_initial_probability = 0.5;
};

Gen<CtmcCase> ctmc_gen(const CtmcGenOptions& options);

/// One generated battery scenario: explicit well contents that land
/// exactly on the level grid (delta * integer level counts), an Erlang
/// on/off workload, and a lifetime-scaled time grid.  The expanded chain
/// stays small (level counts are bounded) so scenario properties can
/// afford hundreds of iterations across orderings x threads x tiers.
struct ScenarioCase {
  double delta = 300.0;
  std::uint32_t levels_available = 5;  ///< y1(0) = levels_available * delta
  std::uint32_t levels_bound = 3;      ///< y2(0) = levels_bound * delta
  double flow_constant = 4.5e-5;
  double on_current = 0.96;
  double frequency = 1.0;
  int erlang_k = 1;
  std::vector<double> times;

  core::KibamRmModel model() const;
};

struct ScenarioGenOptions {
  std::uint32_t max_levels_available = 10;
  std::uint32_t max_levels_bound = 6;
  int max_erlang_k = 3;
  std::size_t max_time_points = 6;
};

Gen<ScenarioCase> scenario_gen(const ScenarioGenOptions& options = {});

/// Sorted positive time grids on their own (for grid-shape properties).
Gen<std::vector<double>> time_grid_gen(double t_min, double t_max,
                                       std::size_t max_points);

}  // namespace kibamrm::prop
