#include "kibamrm/markov/uniformization.hpp"

#include <algorithm>
#include <cmath>

#include "kibamrm/common/error.hpp"

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

UniformizationDriver::UniformizationDriver(double epsilon,
                                           bool steady_state_detection)
    : epsilon_(epsilon), steady_state_detection_(steady_state_detection) {
  KIBAMRM_REQUIRE(epsilon_ > 0.0 && epsilon_ < 1.0,
                  "transient epsilon must lie in (0,1)");
}

double UniformizationDriver::select_rate(const Ctmc& chain) {
  const double rate = 1.02 * chain.max_exit_rate();
  return rate == 0.0 ? 1.0 : rate;  // 1 for an all-absorbing generator
}

void UniformizationDriver::advance(StepExecutor& executor, double rate,
                                   std::vector<double>& current, double dt,
                                   TransientStats& stats) {
  const std::uint64_t windows_computed_before = plan_.windows_computed();
  const std::shared_ptr<const PoissonWindow> window_ptr =
      plan_.window(rate * dt, epsilon_);
  if (plan_.windows_computed() > windows_computed_before) {
    ++stats.windows_computed;
  } else {
    ++stats.windows_reused;
  }
  const PoissonWindow& window = *window_ptr;
  // The detection error is charged against the same per-increment budget
  // as the Fox-Glynn truncation, so the overall guarantee keeps its order.
  const double threshold = epsilon_ / 2.0;
  // n = 0 term: current == pi(t_k) exactly.
  executor.load(current, window.left == 0 ? window.weight(0) : 0.0,
                drop_threshold(epsilon_, window.right, current.size()));
  std::uint64_t calm_steps = 0;  // consecutive steps inside the budget
  for (std::uint64_t n = 1; n <= window.right; ++n) {
    const double weight = n >= window.left ? window.weight(n) : 0.0;
    const double delta = executor.step(weight);
    ++stats.iterations;
    // Steady-state / absorption short circuit: once the per-step change
    // can no longer move the result beyond the budget -- (right - n) *
    // delta <= threshold, i.e. a triangle inequality over the remaining
    // steps assuming the per-step changes keep shrinking -- the whole
    // residual Poisson tail collapses onto the converged vector.  Two
    // consecutive in-budget steps guard against a transient lull; the
    // bound is strictly more conservative than the usual absolute cut
    // delta <= eps/8 (which measurably overruns the 10 eps agreement
    // budget on the Fig. 8 chains).  The executor reduces its delta by
    // max, which is partition-independent, so the decision is identical
    // at every lane count.
    if (steady_state_detection_ && n < window.right &&
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
  executor.read_back(current);
  const StepExecutor::IncrementWork work = executor.increment_work();
  stats.rows_iterated += work.rows_iterated;
  stats.dropped_mass += work.dropped_mass;
}

}  // namespace kibamrm::markov
