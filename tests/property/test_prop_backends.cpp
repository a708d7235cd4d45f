// Property: all four transient backends compute the same distribution.
//
// The system contract under test -- PRs 3-6 rewrote every hot path
// (fused gather, closure compaction, CGS2 Arnoldi, permutation layer,
// kernel tiers) behind the backend interface, and this is the invariant
// that says none of those rewrites changed the mathematics: on a random
// chain, `uniformization`, `parallel`, `dense` and `krylov` agree
// pointwise on pi(t), for every structural family the generators
// produce.  The stiff family beyond the uniformisation window's reach is
// checked against the dense oracle + krylov only (the other backends'
// cost there is by design, not a bug).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/linalg/vector_ops.hpp"
#include "property/generators.hpp"
#include "property/propgen.hpp"

namespace kibamrm::prop {
namespace {

/// Solves `value` with every backend in `names` and checks pairwise
/// agreement within `tolerance` at every time point.
Verdict backends_agree(const CtmcCase& value,
                       const std::vector<std::string>& names,
                       double tolerance) {
  const markov::Ctmc chain = value.chain();
  std::vector<std::vector<std::vector<double>>> results;
  results.reserve(names.size());
  for (const std::string& name : names) {
    engine::BackendOptions options;
    if (name == "parallel") options.threads = 2;
    auto backend = engine::make_backend(name, options);
    results.push_back(backend->solve(chain, value.initial, value.times));
  }
  for (std::size_t a = 0; a < results.size(); ++a) {
    for (std::size_t b = a + 1; b < results.size(); ++b) {
      for (std::size_t k = 0; k < value.times.size(); ++k) {
        const double distance =
            linalg::linf_distance(results[a][k], results[b][k]);
        if (distance > tolerance) {
          std::ostringstream why;
          why << names[a] << " vs " << names[b] << " at t="
              << value.times[k] << ": linf " << distance << " > "
              << tolerance;
          return Verdict::fail(why.str());
        }
      }
    }
  }
  return Verdict::pass();
}

const std::vector<std::string> kAllFour = {"dense", "krylov", "parallel",
                                           "uniformization"};

class BackendAgreement : public ::testing::TestWithParam<CtmcFamily> {};

TEST_P(BackendAgreement, AllFourBackendsAgreeWithinTolerance) {
  CtmcGenOptions options;
  options.family = GetParam();
  // Keep q * t modest: every backend (including uniformisation, whose
  // Poisson window grows with q * t) must afford each solve, and
  // stiffness within the capped product is already 6 decades of rate
  // spread.
  options.max_rate_time_product = 1500.0;
  check<CtmcCase>(std::string("AllFourAgree/") +
                      std::string(ctmc_family_name(GetParam())),
                  ctmc_gen(options),
                  [](const CtmcCase& value) {
                    return backends_agree(value, kAllFour, 1e-7);
                  });
}

INSTANTIATE_TEST_SUITE_P(Families, BackendAgreement,
                         ::testing::Values(CtmcFamily::kErgodic,
                                           CtmcFamily::kAbsorbing,
                                           CtmcFamily::kStiff,
                                           CtmcFamily::kNearDegenerate),
                         [](const auto& info) {
                           std::string name(ctmc_family_name(info.param));
                           name.erase(
                               std::remove(name.begin(), name.end(), '-'),
                               name.end());
                           return name;
                         });

TEST(BackendAgreement, KrylovMatchesDenseOracleBeyondExplicitReach) {
  // Rate ratios up to 1e8 and horizons far past 1/q_max: only the Krylov
  // backend and the dense oracle can afford these solves; their
  // agreement is the contract that lets the krylov engine claim the
  // stiff regime the paper's explicit pipeline refuses.
  CtmcGenOptions options;
  options.family = CtmcFamily::kStiff;
  options.stiff_decades = 8.0;
  options.max_states = 8;
  // q_max * t up to 1e7: ~2000x past what the capped property above
  // allows, yet sub-millisecond for both solvers here.
  options.max_rate_time_product = 1e7;
  check<CtmcCase>("KrylovVsDenseStiff", ctmc_gen(options),
                  [](const CtmcCase& value) {
                    return backends_agree(value, {"dense", "krylov"}, 1e-7);
                  });
}

}  // namespace
}  // namespace kibamrm::prop
