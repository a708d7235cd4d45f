#include "kibamrm/markov/uniformization.hpp"

#include <algorithm>
#include <cmath>

#include "kibamrm/common/error.hpp"
#include "kibamrm/engine/gather_executor.hpp"
#include "kibamrm/engine/plan_cache.hpp"
#include "kibamrm/linalg/vector_ops.hpp"

namespace kibamrm::markov {

double drop_threshold(double epsilon, std::uint64_t window_right,
                      std::size_t rows) {
  if (window_right == 0 || rows == 0) return 0.0;
  return epsilon / (100.0 * static_cast<double>(window_right) *
                    static_cast<double>(rows));
}

void drop_cold_chunks(double* v, std::size_t rows, std::size_t chunk_begin,
                      std::size_t chunk_end, double threshold,
                      double* dropped, std::uint8_t* live) {
  for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
    double* chunk = v + c * kDropChunkRows;
    const std::size_t count =
        std::min(kDropChunkRows, rows - c * kDropChunkRows);
    // Branch-free flags over fixed blocks, so the scan vectorises (a
    // dependent scalar max costs a large share of the window's gain), and
    // an exit after the first block that proves the chunk live -- most
    // stepped chunks hold mass, so most scans stop after one block.
    // `hot` is set by an entry at or above the threshold and by a NaN,
    // whose comparison is false, so a chunk holding a NaN is never
    // dropped.
    constexpr std::size_t kScanBlock = 32;
    unsigned hot = 0;
    unsigned nonzero = 0;
    const auto scan = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const double a = std::abs(chunk[i]);
        hot |= static_cast<unsigned>(!(a < threshold));
        nonzero |= static_cast<unsigned>(a != 0.0);
      }
    };
    std::size_t scanned = 0;
    for (; hot == 0 && scanned + kScanBlock <= count; scanned += kScanBlock) {
      scan(scanned, scanned + kScanBlock);
    }
    if (hot == 0) scan(scanned, count);
    if (live != nullptr) live[c] = static_cast<std::uint8_t>(hot);
    if (hot != 0 || nonzero == 0) continue;
    // Four fixed partial sums: the order is part of the code, so every
    // engine sums a dropped chunk to the same bits.
    double partial[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
      for (std::size_t j = 0; j < 4; ++j) partial[j] += chunk[i + j];
    }
    for (; i < count; ++i) partial[i % 4] += chunk[i];
    dropped[c] += (partial[0] + partial[1]) + (partial[2] + partial[3]);
    std::fill(chunk, chunk + count, 0.0);
  }
}

UniformizationDriver::UniformizationDriver(TransientOptions options)
    : options_(options) {
  KIBAMRM_REQUIRE(options_.epsilon > 0.0 && options_.epsilon < 1.0,
                  "transient epsilon must lie in (0,1)");
}

double UniformizationDriver::select_rate(const Ctmc& chain, double requested) {
  double rate = requested;
  if (rate == 0.0) {
    rate = 1.02 * chain.max_exit_rate();
    if (rate == 0.0) rate = 1.0;  // generator is all-absorbing
  }
  KIBAMRM_REQUIRE(rate * (1.0 + 1e-12) >= chain.max_exit_rate(),
                  "uniformization rate below maximal exit rate");
  return rate;
}

std::vector<std::vector<double>> UniformizationDriver::run(
    StepExecutor& executor, double rate,
    std::span<const std::uint32_t> reachable,
    const std::vector<double>& initial, const std::vector<double>& times,
    const PointCallback& on_point, TransientStats& stats) {
  stats.iterations = 0;
  stats.iterations_saved = 0;
  stats.steady_state_hits = 0;
  stats.time_points = times.size();
  stats.uniformization_rate = rate;
  stats.active_states = reachable.size();
  stats.rows_iterated = 0;
  stats.dropped_mass = 0.0;
  const std::uint64_t windows_computed_before = plan_.windows_computed();
  const std::uint64_t windows_reused_before = plan_.windows_reused();
  const bool detect = options_.steady_state_detection;
  // The detection error is charged against the same per-increment budget
  // as the Fox-Glynn truncation, so the overall guarantee keeps its order.
  const double threshold = options_.epsilon / 2.0;

  std::vector<std::vector<double>> results;
  if (options_.collect_results) results.reserve(times.size());
  current_.resize(reachable.size());
  for (std::size_t i = 0; i < reachable.size(); ++i) {
    current_[i] = initial[reachable[i]];
  }
  // Unreachable entries are zero forever, so only the compacted entries
  // of the emission buffer are ever rewritten.
  full_point_.assign(initial.size(), 0.0);

  double current_time = 0.0;
  for (std::size_t idx = 0; idx < times.size(); ++idx) {
    const double dt = times[idx] - current_time;
    if (dt > 0.0) {
      const std::shared_ptr<const PoissonWindow> window_ptr =
          plan_.window(rate * dt, options_.epsilon);
      const PoissonWindow& window = *window_ptr;
      // n = 0 term: current == pi(t_k) exactly.
      executor.load(
          current_, window.left == 0 ? window.weight(0) : 0.0,
          drop_threshold(options_.epsilon, window.right, reachable.size()));
      std::uint64_t calm_steps = 0;  // consecutive steps inside the budget
      for (std::uint64_t n = 1; n <= window.right; ++n) {
        const double weight = n >= window.left ? window.weight(n) : 0.0;
        const double delta = executor.step(weight);
        ++stats.iterations;
        // Steady-state / absorption short circuit: once the per-step
        // change can no longer move the result beyond the budget --
        // (right - n) * delta <= threshold, i.e. a triangle inequality
        // over the remaining steps assuming the per-step changes keep
        // shrinking -- the whole residual Poisson tail collapses onto the
        // converged vector.  Two consecutive in-budget steps guard
        // against a transient lull; the bound is strictly more
        // conservative than the usual absolute cut delta <= eps/8 (which
        // measurably overruns the 10 eps agreement budget on the Fig. 8
        // chains).  The executor reduces its delta by max, which is
        // partition-independent, so the decision is identical at every
        // lane count.
        if (detect && n < window.right &&
            static_cast<double>(window.right - n) * delta <= threshold) {
          if (++calm_steps >= 2) {
            double residual = 0.0;  // remaining tail mass, summed directly
            for (std::uint64_t m = n + 1; m <= window.right; ++m) {
              residual += window.weight(m);
            }
            executor.fold(residual);
            stats.iterations_saved += window.right - n;
            ++stats.steady_state_hits;
            break;
          }
        } else {
          calm_steps = 0;
        }
      }
      executor.read_back(current_);
      const StepExecutor::IncrementWork work = executor.increment_work();
      stats.rows_iterated += work.rows_iterated;
      stats.dropped_mass += work.dropped_mass;
      if (options_.renormalize) linalg::normalize_probability(current_);
      current_time = times[idx];
    }
    if (options_.collect_results || on_point) {
      for (std::size_t i = 0; i < reachable.size(); ++i) {
        full_point_[reachable[i]] = current_[i];
      }
      if (options_.collect_results) results.push_back(full_point_);
      if (on_point) on_point(idx, times[idx], full_point_);
    }
  }
  stats.windows_computed = plan_.windows_computed() - windows_computed_before;
  stats.windows_reused = plan_.windows_reused() - windows_reused_before;
  return results;
}

TransientSolver::TransientSolver(const Ctmc& chain, TransientOptions options)
    : chain_(chain),
      rate_(UniformizationDriver::select_rate(chain,
                                              options.uniformization_rate)),
      driver_(options),
      executor_(std::make_unique<engine::GatherExecutor>(nullptr)) {}

TransientSolver::~TransientSolver() = default;

std::vector<std::vector<double>> TransientSolver::solve(
    const std::vector<double>& initial, const std::vector<double>& times,
    const PointCallback& on_point) {
  check_transient_arguments(chain_, initial, times);

  // The closure of a subset is a subset of the closure, so the cached
  // plan stays valid whenever the new support is inside it -- the common
  // case for solvers reused across initials of the same chain.
  bool covered = plan_ != nullptr;
  std::vector<std::uint32_t> seeds;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    if (initial[i] != 0.0) {
      seeds.push_back(static_cast<std::uint32_t>(i));
      covered = covered && std::binary_search(plan_->reachable.begin(),
                                              plan_->reachable.end(), i);
    }
  }
  if (!covered) {
    if (plan_) {
      seeds.insert(seeds.end(), plan_->reachable.begin(),
                   plan_->reachable.end());
      std::sort(seeds.begin(), seeds.end());
      seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    }
    plan_ = engine::build_cached_gather_plan(chain_.generator(), rate_, seeds);
    executor_->bind(plan_);
  }

  stats_ = TransientStats{};
  plan_->describe(stats_);
  return driver_.run(*executor_, rate_, plan_->reachable, initial, times,
                     on_point, stats_);
}

void check_transient_arguments(const Ctmc& chain,
                               const std::vector<double>& initial,
                               const std::vector<double>& times) {
  KIBAMRM_REQUIRE(initial.size() == chain.state_count(),
                  "initial distribution has wrong dimension");
  KIBAMRM_REQUIRE(linalg::is_probability_vector(initial, 1e-6),
                  "initial vector is not a probability distribution");
  KIBAMRM_REQUIRE(std::is_sorted(times.begin(), times.end()),
                  "time points must be sorted ascending");
  KIBAMRM_REQUIRE(times.empty() || times.front() >= 0.0,
                  "time points must be non-negative");
}

std::vector<double> transient_distribution(const Ctmc& chain,
                                           const std::vector<double>& initial,
                                           double time,
                                           TransientOptions options) {
  TransientSolver solver(chain, options);
  return solver.solve(initial, {time}).front();
}

}  // namespace kibamrm::markov
