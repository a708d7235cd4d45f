// Property: the linalg-layer building blocks round-trip and mirror each
// other bitwise.
//
//   * Permutation: apply / apply_inverse round-trip exactly, inverse and
//     composition satisfy the group laws, and symmetric conjugation of a
//     matrix preserves every entry.
//   * FusedGatherPlan: the compressed kernel is bit-for-bit the CSR
//     kernel on the same matrix -- for any row range split, any weight,
//     and whatever dispatch tier is active (the contract every engine
//     leans on when it swaps kernels mid-flight).
//   * ScaledExpmCache: the cached-Pade evaluation of exp(sA) matches a
//     fresh expm(sA) to near round-off for any scalar s.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <vector>

#include "kibamrm/common/random.hpp"
#include "kibamrm/linalg/csr_matrix.hpp"
#include "kibamrm/linalg/dense_matrix.hpp"
#include "kibamrm/linalg/expm.hpp"
#include "kibamrm/linalg/fused_gather.hpp"
#include "kibamrm/linalg/permutation.hpp"
#include "property/generators.hpp"
#include "property/propgen.hpp"

namespace kibamrm::prop {
namespace {

// ------------------------------------------------------------ permutations

/// A random permutation with a payload vector to push through it.
struct PermCase {
  std::vector<std::uint32_t> new_of_old;
  std::vector<double> data;
};

Gen<PermCase> perm_gen() {
  Gen<PermCase> gen;
  gen.generate = [](common::RandomStream& stream) {
    PermCase value;
    const std::size_t n =
        1 + static_cast<std::size_t>(stream.uniform() * 64.0);
    value.new_of_old.resize(n);
    std::iota(value.new_of_old.begin(), value.new_of_old.end(), 0u);
    // Fisher-Yates off the deterministic stream.
    for (std::size_t i = n; i > 1; --i) {
      const std::size_t j =
          static_cast<std::size_t>(stream.uniform() * static_cast<double>(i));
      std::swap(value.new_of_old[i - 1], value.new_of_old[j]);
    }
    value.data.resize(n);
    for (double& x : value.data) x = stream.uniform(-1.0, 1.0);
    return value;
  };
  gen.shrink = [](const PermCase& value) {
    std::vector<PermCase> out;
    const std::size_t n = value.new_of_old.size();
    if (n > 1) {
      // Drop the last slot: delete position n-1 and close the gap its
      // image leaves (every value above it shifts down one) -- always a
      // bijection on {0, ..., n-2}.
      const std::uint32_t dropped_image = value.new_of_old[n - 1];
      PermCase smaller;
      smaller.new_of_old.reserve(n - 1);
      for (std::size_t i = 0; i + 1 < n; ++i) {
        const std::uint32_t image = value.new_of_old[i];
        smaller.new_of_old.push_back(image > dropped_image ? image - 1
                                                           : image);
      }
      smaller.data.assign(value.data.begin(), value.data.end() - 1);
      out.push_back(std::move(smaller));
    }
    return out;
  };
  gen.describe = [](const PermCase& value) {
    std::ostringstream text;
    text << "permutation {";
    for (std::size_t i = 0; i < value.new_of_old.size(); ++i)
      text << (i == 0 ? "" : ", ") << value.new_of_old[i];
    text << "}";
    return text.str();
  };
  return gen;
}

TEST(PermutationProps, RoundTripAndGroupLaws) {
  check<PermCase>(
      "PermutationRoundTrip", perm_gen(), [](const PermCase& value) {
        const linalg::Permutation p(value.new_of_old);
        const linalg::Permutation inv = p.inverse();
        if (!p.then(inv).is_identity())
          return Verdict::fail("p.then(p.inverse()) is not the identity");
        if (!inv.then(p).is_identity())
          return Verdict::fail("p.inverse().then(p) is not the identity");
        const std::vector<double> forward = p.apply(value.data);
        const std::vector<double> back = p.apply_inverse(forward);
        if (back != value.data)
          return Verdict::fail(
              "apply_inverse(apply(v)) is not bitwise v");
        if (inv.apply(forward) != back)
          return Verdict::fail(
              "inverse().apply differs from apply_inverse");
        return Verdict::pass();
      });
}

TEST(PermutationProps, SymmetricConjugationPreservesEntries) {
  CtmcGenOptions options;
  options.family = CtmcFamily::kErgodic;
  check<CtmcCase>(
      "PermutedMatrixEntries", ctmc_gen(options), [](const CtmcCase& value) {
        const markov::Ctmc chain = value.chain();
        const linalg::CsrMatrix& q = chain.generator();
        // Derive a deterministic permutation from the case itself: a
        // Fisher-Yates shuffle seeded by its shape, so it stays
        // reproducible under shrinking.
        const std::size_t n = q.rows();
        std::uint64_t state = common::derive_seed(n, q.nonzeros());
        std::vector<std::uint32_t> map(n);
        std::iota(map.begin(), map.end(), 0u);
        for (std::size_t i = n; i > 1; --i) {
          std::swap(map[i - 1], map[common::splitmix64(state) % i]);
        }
        const linalg::Permutation p(std::move(map));
        const linalg::CsrMatrix b = p.permuted(q);
        if (b.nonzeros() != q.nonzeros())
          return Verdict::fail("conjugation changed the entry count");
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            const double original = q.at(i, j);
            const double moved = b.at(p[i], p[j]);
            if (original != moved) {
              std::ostringstream why;
              why << "entry (" << i << "," << j << ") = " << original
                  << " moved to " << moved;
              return Verdict::fail(why.str());
            }
          }
        }
        return Verdict::pass();
      });
}

// -------------------------------------------------------- fused gather plan

/// A random uniformised-transpose matrix with a kernel input: vector x,
/// Poisson weight, and a split point for the range-sharding check.
struct GatherCase {
  CtmcCase base;
  double weight = 0.5;
  double split_fraction = 0.5;

  linalg::CsrMatrix transition_transpose() const {
    const markov::Ctmc chain = base.chain();
    const double rate = 1.02 * chain.max_exit_rate() + 1e-9;
    return chain.generator().uniformized(rate).transposed();
  }
};

Gen<GatherCase> gather_gen() {
  CtmcGenOptions options;
  options.family = CtmcFamily::kErgodic;
  options.min_states = 3;
  options.max_states = 48;
  const Gen<CtmcCase> base = ctmc_gen(options);
  Gen<GatherCase> gen;
  gen.generate = [base](common::RandomStream& stream) {
    GatherCase value;
    value.base = base.generate(stream);
    value.weight = stream.bernoulli(0.2) ? 0.0 : stream.uniform(0.0, 2.0);
    value.split_fraction = stream.uniform();
    return value;
  };
  gen.shrink = [base](const GatherCase& value) {
    std::vector<GatherCase> out;
    for (CtmcCase& smaller : base.shrink(value.base)) {
      GatherCase candidate = value;
      candidate.base = std::move(smaller);
      out.push_back(std::move(candidate));
    }
    if (value.weight != 0.0) {
      GatherCase unweighted = value;
      unweighted.weight = 0.0;
      out.push_back(std::move(unweighted));
    }
    return out;
  };
  gen.describe = [base](const GatherCase& value) {
    std::ostringstream text;
    text << base.describe(value.base) << "; weight=" << value.weight
         << " split=" << value.split_fraction;
    return text.str();
  };
  return gen;
}

TEST(FusedGatherProps, CompressedPlanIsBitwiseTheCsrKernel) {
  check<GatherCase>(
      "FusedGatherParity", gather_gen(), [](const GatherCase& value) {
        const linalg::CsrMatrix matrix = value.transition_transpose();
        const auto plan = linalg::FusedGatherPlan::build(matrix);
        if (!plan.has_value())
          return Verdict::fail("plan refused a small banded matrix");
        const std::size_t n = matrix.rows();
        // The probe vector: the case's initial distribution (exact
        // doubles either way).
        const std::vector<double>& x = value.base.initial;

        std::vector<double> out_csr(n, 0.0), accum_csr(n, 0.25);
        std::vector<double> out_plan(n, 0.0), accum_plan(n, 0.25);
        const double delta_csr = matrix.multiply_fused_range(
            x, out_csr, accum_csr, value.weight, 0, n);
        const double delta_plan = plan->multiply_fused_range(
            x, out_plan, accum_plan, value.weight, 0, n);
        if (out_csr != out_plan)
          return Verdict::fail("plan out differs from CSR out");
        if (accum_csr != accum_plan)
          return Verdict::fail("plan accum differs from CSR accum");
        if (delta_csr != delta_plan)
          return Verdict::fail("plan delta differs from CSR delta");

        // Range sharding: any split reproduces the full-range bits.
        const std::size_t split = std::min<std::size_t>(
            n, static_cast<std::size_t>(value.split_fraction *
                                        static_cast<double>(n + 1)));
        std::vector<double> out_split(n, 0.0), accum_split(n, 0.25);
        const double delta_lo = plan->multiply_fused_range(
            x, out_split, accum_split, value.weight, 0, split);
        const double delta_hi = plan->multiply_fused_range(
            x, out_split, accum_split, value.weight, split, n);
        if (out_split != out_plan)
          return Verdict::fail("split out differs from full-range out");
        if (accum_split != accum_plan)
          return Verdict::fail("split accum differs from full-range accum");
        if (std::max(delta_lo, delta_hi) != delta_plan)
          return Verdict::fail("split deltas do not combine to the "
                               "full-range delta");
        return Verdict::pass();
      });
}

// --------------------------------------------------------- scaled expm cache

struct ExpmCase {
  CtmcCase base;
  double scalar = 1.0;
};

Gen<ExpmCase> expm_gen() {
  CtmcGenOptions options;
  options.family = CtmcFamily::kErgodic;
  options.max_states = 7;
  const Gen<CtmcCase> base = ctmc_gen(options);
  Gen<ExpmCase> gen;
  gen.generate = [base](common::RandomStream& stream) {
    ExpmCase value;
    value.base = base.generate(stream);
    value.scalar = stream.uniform(-3.0, 3.0);
    return value;
  };
  gen.shrink = [base](const ExpmCase& value) {
    std::vector<ExpmCase> out;
    for (CtmcCase& smaller : base.shrink(value.base)) {
      ExpmCase candidate = value;
      candidate.base = std::move(smaller);
      out.push_back(std::move(candidate));
    }
    if (value.scalar != 1.0) {
      ExpmCase unit = value;
      unit.scalar = 1.0;
      out.push_back(unit);
    }
    return out;
  };
  gen.describe = [base](const ExpmCase& value) {
    std::ostringstream text;
    text << base.describe(value.base) << "; s=" << value.scalar;
    return text.str();
  };
  return gen;
}

TEST(ScaledExpmCacheProps, MatchesFreshExpmForAnyScalar) {
  check<ExpmCase>(
      "ScaledExpmCacheParity", expm_gen(), [](const ExpmCase& value) {
        const linalg::DenseReal a = value.base.chain().dense_generator();
        const linalg::ScaledExpmCache cache(a);
        const linalg::DenseReal via_cache = cache.expm(value.scalar);

        linalg::DenseReal scaled(a.rows(), a.cols());
        for (std::size_t i = 0; i < a.rows(); ++i)
          for (std::size_t j = 0; j < a.cols(); ++j)
            scaled(i, j) = value.scalar * a(i, j);
        const linalg::DenseReal fresh = linalg::expm(scaled);

        double max_magnitude = 1.0;
        for (std::size_t i = 0; i < fresh.rows(); ++i)
          for (std::size_t j = 0; j < fresh.cols(); ++j)
            max_magnitude =
                std::max(max_magnitude, std::abs(fresh(i, j)));
        for (std::size_t i = 0; i < fresh.rows(); ++i) {
          for (std::size_t j = 0; j < fresh.cols(); ++j) {
            const double difference =
                std::abs(via_cache(i, j) - fresh(i, j));
            if (difference > 1e-11 * max_magnitude) {
              std::ostringstream why;
              why << "exp(sA)(" << i << "," << j << "): cache "
                  << via_cache(i, j) << " vs fresh " << fresh(i, j)
                  << " (|diff| " << difference << ")";
              return Verdict::fail(why.str());
            }
          }
        }
        return Verdict::pass();
      });
}

}  // namespace
}  // namespace kibamrm::prop
