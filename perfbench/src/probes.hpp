// Layer probes of the traced run.  Each probe calls one public entry point
// of the engine, markov or linalg layer on the op's own chain, outside the
// op's span, and times it in isolation; the host probes measure what this
// machine can move, so kernel rates become fractions of a same-host
// ceiling.  All probes run on one lane.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kibamrm/engine/plan_cache.hpp"
#include "kibamrm/markov/ctmc.hpp"

namespace perfbench {

/// engine::build_cached_gather_plan on the chain at the backends' default
/// uniformisation rate.
struct PlanProbe {
  std::shared_ptr<const kibamrm::engine::CachedGatherPlan> plan;
  double rate = 0.0;
  double plan_s = 0.0;
};

PlanProbe probe_plan(const kibamrm::markov::Ctmc& chain,
                     const std::vector<double>& initial);

/// The one-lane fused gather (FusedGatherPlan::multiply_fused_range) over
/// the plan's whole compacted range.
struct GatherProbe {
  double uniform_fraction = 0.0;
  std::uint64_t rows = 0;
  std::uint64_t nonzeros = 0;
  /// Median over blocks of a fixed step count.
  double ns_per_step = 0.0;
  /// Computed, not measured: 4 B per stored entry (packed value id and
  /// offset) plus 33 B per row (row length, x, out, accum read+write).
  double bytes_per_step = 0.0;
  /// Computed: 2 flops per entry, 4 per row (accumulate, delta).
  double ops_per_step = 0.0;
};

GatherProbe probe_gather(const kibamrm::engine::CachedGatherPlan& cached);

/// Seconds of markov::UniformizationPlan::window over the increments of
/// `times` at `rate` (fresh plan, median of several passes).
double probe_windows(double rate, const std::vector<double>& times,
                     double epsilon);

/// One linalg::arnoldi factorisation at dimension m on the compacted
/// transposed generator (median of several), one CSR matvec with that
/// matrix, and kernels::dot/axpy rates at the same vector length.
struct KrylovProbe {
  std::uint64_t length = 0;
  double arnoldi_s = 0.0;
  double matvec_ns = 0.0;
  double dot_gbps = 0.0;
  double axpy_gbps = 0.0;
};

KrylovProbe probe_krylov(const kibamrm::markov::Ctmc& chain,
                         const std::vector<std::uint32_t>& reachable,
                         std::size_t m);

/// STREAM-style triad a = b + s c over three arrays totalling `bytes`,
/// single-threaded; best pass rate (counting 24 B per element).
struct TriadProbe {
  std::uint64_t bytes = 0;
  double gbps = 0.0;
};

TriadProbe probe_triad(std::uint64_t bytes);

struct HostInfo {
  std::size_t nproc = 1;
  std::string cpu_model;
  std::uint64_t llc_bytes = 0;
  std::string kernel_tier;
  int kernel_tier_code = 0;
};

HostInfo host_info();

}  // namespace perfbench
