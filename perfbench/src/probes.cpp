#include "probes.hpp"

#include <unistd.h>

#include <algorithm>
#include <fstream>

#include "kibamrm/common/thread_pool.hpp"
#include "kibamrm/linalg/arnoldi.hpp"
#include "kibamrm/linalg/kernels.hpp"
#include "kibamrm/markov/fox_glynn.hpp"
#include "timing.hpp"

namespace perfbench {

namespace {

// Keeps probe results observable so no timed loop is optimised away.
volatile double g_sink = 0.0;

}  // namespace

PlanProbe probe_plan(const kibamrm::markov::Ctmc& chain,
                     const std::vector<double>& initial) {
  PlanProbe probe;
  // The backends' default uniformisation rate.
  probe.rate = 1.02 * chain.max_exit_rate();
  if (probe.rate == 0.0) probe.rate = 1.0;
  std::vector<std::uint32_t> seeds;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    if (initial[i] != 0.0) seeds.push_back(static_cast<std::uint32_t>(i));
  }
  const auto start = Clock::now();
  probe.plan = kibamrm::engine::build_cached_gather_plan(chain.generator(),
                                                         probe.rate, seeds);
  probe.plan_s = since(start);
  return probe;
}

GatherProbe probe_gather(const kibamrm::engine::CachedGatherPlan& cached) {
  GatherProbe probe;
  probe.rows = cached.rows();
  probe.nonzeros = cached.nonzeros;
  probe.uniform_fraction = cached.plan ? cached.plan->uniform_fraction() : 0.0;
  probe.bytes_per_step = 4.0 * static_cast<double>(probe.nonzeros) +
                         33.0 * static_cast<double>(probe.rows);
  probe.ops_per_step = 2.0 * static_cast<double>(probe.nonzeros) +
                       4.0 * static_cast<double>(probe.rows);

  const std::size_t n = cached.rows();
  std::vector<double> x(n, 1.0 / static_cast<double>(n));
  std::vector<double> out(n, 0.0);
  std::vector<double> accum(n, 0.0);
  const auto step = [&] {
    const double delta =
        cached.plan
            ? cached.plan->multiply_fused_range(x, out, accum, 0.5, 0, n)
            : cached.transpose.multiply_fused_range(x, out, accum, 0.5, 0, n);
    x.swap(out);
    return delta;
  };
  // A fixed step count per block, derived from the chain alone (about
  // 0.2 GB of computed traffic), so a chain always runs the same work.
  const std::size_t block_steps = std::max<std::size_t>(
      20, static_cast<std::size_t>(2e8 / probe.bytes_per_step));
  for (std::size_t s = 0; s < block_steps / 4 + 1; ++s) g_sink = step();
  std::vector<double> per_step;
  for (int block = 0; block < 5; ++block) {
    const auto start = Clock::now();
    double delta = 0.0;
    for (std::size_t s = 0; s < block_steps; ++s) delta += step();
    per_step.push_back(since(start) * 1e9 / static_cast<double>(block_steps));
    g_sink = delta;
  }
  probe.ns_per_step = median(per_step);
  return probe;
}

double probe_windows(double rate, const std::vector<double>& times,
                     double epsilon) {
  std::vector<double> passes;
  for (int pass = 0; pass < 5; ++pass) {
    kibamrm::markov::UniformizationPlan plan;
    const auto start = Clock::now();
    double previous = 0.0;
    for (const double t : times) {
      if (t > previous) g_sink = plan.window(rate * (t - previous), epsilon)->right;
      previous = t;
    }
    passes.push_back(since(start));
  }
  return median(passes);
}

KrylovProbe probe_krylov(const kibamrm::markov::Ctmc& chain,
                         const std::vector<std::uint32_t>& reachable,
                         std::size_t m) {
  namespace linalg = kibamrm::linalg;
  KrylovProbe probe;
  const linalg::CsrMatrix qt =
      chain.generator().transposed_submatrix(reachable);
  const std::size_t n = qt.rows();
  probe.length = n;
  m = std::min(m, n);

  std::vector<std::vector<double>> basis(m + 1, std::vector<double>(n, 0.0));
  linalg::DenseReal h(m + 1, m);
  std::vector<double> start(n);
  for (std::size_t i = 0; i < n; ++i) {
    start[i] = 1.0 + static_cast<double>(i % 7);
  }
  const double norm = linalg::kernels::nrm2(start.data(), n);
  for (double& v : start) v /= norm;
  const linalg::ArnoldiMatvec matvec = [&](const std::vector<double>& in,
                                           std::vector<double>& out) {
    qt.multiply_range(in, out, 0, n);
  };
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    basis[0] = start;
    const auto t0 = Clock::now();
    const linalg::ArnoldiResult result =
        linalg::arnoldi(matvec, basis, h, m, 1e-14);
    runs.push_back(since(t0));
    g_sink = static_cast<double>(result.dim);
  }
  probe.arnoldi_s = median(runs);

  std::vector<double> matvecs;
  for (int rep = 0; rep < 9; ++rep) {
    const auto t0 = Clock::now();
    matvec(basis[0], basis[1]);
    matvecs.push_back(since(t0) * 1e9);
  }
  probe.matvec_ns = median(matvecs);

  // kernels::dot / axpy at the Krylov vector length, one lane; repeat to
  // about 20 ms per measurement and keep the median of five.
  std::vector<double> a(n, 0.5);
  std::vector<double> b(n, 0.25);
  const std::size_t reps =
      std::max<std::size_t>(8, static_cast<std::size_t>(2.5e6 / n));
  std::vector<double> dot_rates;
  std::vector<double> axpy_rates;
  for (int round = 0; round < 5; ++round) {
    auto t0 = Clock::now();
    double acc = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      acc += linalg::kernels::dot(a.data(), b.data(), n);
    }
    dot_rates.push_back(16.0 * static_cast<double>(n * reps) / since(t0) /
                        1e9);
    g_sink = acc;
    t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      linalg::kernels::axpy(r % 2 ? 1e-9 : -1e-9, a.data(), b.data(), n);
    }
    axpy_rates.push_back(24.0 * static_cast<double>(n * reps) / since(t0) /
                         1e9);
    g_sink = b[n / 2];
  }
  probe.dot_gbps = median(dot_rates);
  probe.axpy_gbps = median(axpy_rates);
  return probe;
}

TriadProbe probe_triad(std::uint64_t bytes) {
  const std::size_t n = std::max<std::size_t>(1024, bytes / 24);
  TriadProbe probe;
  probe.bytes = 24ull * n;
  std::vector<double> a(n, 0.0);
  std::vector<double> b(n, 1.0);
  std::vector<double> c(n, 2.0);
  double* pa = a.data();
  const double* pb = b.data();
  const double* pc = c.data();
  const double scalar = 3.0;
  // Small arrays repeat the triad within a pass so each timing covers at
  // least ~50 MB; large ones take one sweep per pass.
  const std::size_t inner =
      std::max<std::size_t>(1, static_cast<std::size_t>(5e7 / probe.bytes));
  double best = 0.0;
  const auto started = Clock::now();
  for (int pass = 0; pass < 40 && (pass < 5 || since(started) < 0.5);
       ++pass) {
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < inner; ++r) {
      for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + scalar * pc[i];
      g_sink = pa[r % n];
    }
    const double rate =
        static_cast<double>(probe.bytes * inner) / since(t0) / 1e9;
    best = std::max(best, rate);
  }
  probe.gbps = best;
  return probe;
}

HostInfo host_info() {
  HostInfo info;
  info.nproc = kibamrm::common::ThreadPool::hardware_thread_count();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        info.cpu_model = line.substr(colon + 1);
        info.cpu_model.erase(0, info.cpu_model.find_first_not_of(' '));
      }
      break;
    }
  }
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  info.llc_bytes = llc > 0 ? static_cast<std::uint64_t>(llc) : 0;
  const auto tier = kibamrm::linalg::kernels::active_dispatch();
  info.kernel_tier = std::string(kibamrm::linalg::kernels::dispatch_name(tier));
  info.kernel_tier_code = static_cast<int>(tier);
  return info;
}

}  // namespace perfbench
