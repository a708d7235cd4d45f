// Transient solution of CTMCs by uniformisation.
//
// Given a CTMC with generator Q and an initial distribution pi(0), the
// transient distribution is
//     pi(t) = sum_{n>=0} Pois(q t; n) * pi(0) P^n,   P = I + Q/q,
// truncated with Fox-Glynn windows.  This is the computational core of the
// paper's Markovian approximation (Sec. 5): the expanded battery chain Q* is
// solved with exactly this routine.
//
// Multiple time points are handled *incrementally*: pi(t_{k+1}) is computed
// from pi(t_k) over the increment t_{k+1} - t_k, so a whole lifetime curve
// costs about as many matrix-vector products as its final time point alone
// (q * t_max plus a Fox-Glynn window per point).
//
// UniformizationDriver::advance takes one such increment: it owns the
// Poisson windows (memoised per (lambda, epsilon), so uniform time grids
// compute one window per curve), the per-step weights, steady-state
// detection with its residual-tail fold and iteration accounting.  How one
// DTMC step executes -- inline or sharded over a thread pool -- is a
// StepExecutor (the engine layer's gather executor; the driver tests
// substitute scripted ones).  The time-grid march around the increments --
// argument validation, renormalisation and point emission -- belongs to
// the engine layer, which shares it with its non-uniformisation engines.
//
// Mass window.  The probability mass of the expanded battery chains moves
// as a blob, at most one charge level per step, so most rows of the loop
// vector hold nothing, or nothing that matters, at any one step.  The
// loop space is cut into fixed chunks of kDropChunkRows rows; after every
// DTMC step each executor zeroes every chunk whose entries all lie below
// the increment's threshold theta = epsilon / (100 * window.right * rows)
// (drop_threshold, drop_cold_chunks).  A step then drops less than
// rows * theta of mass, and a whole increment less than epsilon / 100,
// by construction; TransientStats::dropped_mass reports what was
// dropped.  The rule reads one fixed chunk at a time, so it does not
// depend on how an executor partitions rows: every lane count drops the
// same chunks and stays bitwise identical to the others.  The executor
// (engine::GatherExecutor) steps only the hull of the chunks that still
// carry mass, widened by the matrix's reach, which is where the rule
// pays: TransientStats::rows_iterated counts the rows actually stepped.  (This is adaptive uniformisation in the sense of
// van Moorsel & Sanders, 1994, and fast adaptive uniformisation,
// Dannenberg, Hahn & Kwiatkowska, 2015, with a fixed state space.)
#pragma once

#include <cstdint>
#include <vector>

#include "kibamrm/markov/ctmc.hpp"
#include "kibamrm/markov/fox_glynn.hpp"

namespace kibamrm::markov {

/// Cost counters for complexity experiments (Sec. 5.3 / Sec. 6.1 quote
/// iteration counts; bench/ablation_complexity reproduces them).
struct TransientStats {
  std::uint64_t iterations = 0;     // total DTMC steps (= matrix products)
  std::uint64_t time_points = 0;    // number of requested outputs
  double uniformization_rate = 0.0;
  /// Poisson terms short-circuited by steady-state detection; iterations +
  /// iterations_saved equals the full Fox-Glynn term count, independent of
  /// whether and where detection fired.
  std::uint64_t iterations_saved = 0;
  /// Time increments on which detection fired.
  std::uint64_t steady_state_hits = 0;
  /// Fox-Glynn windows computed / served from the plan cache this solve;
  /// a uniform time grid computes exactly one.
  std::uint64_t windows_computed = 0;
  std::uint64_t windows_reused = 0;
  /// States inside the reachable closure of the initial distribution --
  /// the dimension the loop actually iterates (every state for the dense
  /// engine).
  std::uint64_t active_states = 0;
  /// Stored entries of the matrix the loop actually iterates (the
  /// compacted transpose) -- the honest per-iteration work unit for
  /// throughput metrics.
  std::uint64_t active_nonzeros = 0;
  /// Structure of the iterated matrix: maximal |col - row|, rows inside
  /// >= 4-row equal-length runs (the metric state reordering exists to
  /// raise) and the longest such run.
  std::uint64_t matrix_bandwidth = 0;
  std::uint64_t groupable_rows = 0;
  std::uint64_t longest_uniform_run = 0;
  /// Rows repeating the previous row's full offset pattern (diagonal
  /// runs) and the longest such run; see linalg::StructureStats.
  std::uint64_t diagonal_rows = 0;
  std::uint64_t longest_diagonal_run = 0;
  /// Loop rows the DTMC steps actually iterated, summed over steps: up to
  /// iterations * active_states, less where the mass window skips rows.
  /// The krylov engine counts the rows its matvecs wrote.
  std::uint64_t rows_iterated = 0;
  /// Probability mass the mass window zeroed (see the file comment),
  /// summed per chunk over each increment, then over chunks in chunk
  /// order, then over increments -- the same bits at every lane count.
  /// Below epsilon / 100 per increment by construction, for the krylov
  /// engine's per-sub-step drops too.
  double dropped_mass = 0.0;
};

/// Rows per chunk of the mass window; a constant, so every lane count
/// cuts the loop space identically.
inline constexpr std::size_t kDropChunkRows = 512;

/// Chunks covering `rows` loop rows (the last one may be partial).
inline std::size_t drop_chunk_count(std::size_t rows) {
  return (rows + kDropChunkRows - 1) / kDropChunkRows;
}

/// The drop threshold theta of one increment whose Fox-Glynn window ends
/// at `window_right`, over `rows` loop rows: epsilon / (100 *
/// window_right * rows), so that at most window_right steps that each
/// drop less than rows * theta drop less than epsilon / 100 in total.
/// 0 (drop nothing) for an empty loop space or window.
double drop_threshold(double epsilon, std::uint64_t window_right,
                      std::size_t rows);

/// Applies the mass-window drop rule to chunks [chunk_begin, chunk_end)
/// of the loop vector `v` (`rows` entries): a chunk whose entries all lie
/// below `threshold` in magnitude is zeroed and its sum, taken in row
/// order, is added to dropped[chunk]; any other chunk -- one with an
/// entry at or above the threshold, or a NaN -- is kept untouched.  When
/// `live` is non-null, live[chunk] records whether the chunk was kept.
/// Chunks are disjoint, so callers may apply it to disjoint chunk ranges
/// concurrently.
void drop_cold_chunks(double* v, std::size_t rows, std::size_t chunk_begin,
                      std::size_t chunk_end, double threshold,
                      double* dropped, std::uint8_t* live);

/// The vector work of one uniformisation increment, in the compacted
/// state space of the reachable closure.  An engine implements only this;
/// UniformizationDriver decides everything else about the increment.
class StepExecutor {
 public:
  virtual ~StepExecutor() = default;

  /// Starts an increment from pi(t_k) = `current`: the power vector
  /// becomes `current` and the accumulator weight0 * current (weight0 is
  /// 0 when the n = 0 term lies left of the window).  Every step of the
  /// increment ends with drop_cold_chunks(power, drop_threshold).
  virtual void load(const std::vector<double>& current, double weight0,
                    double drop_threshold) = 0;

  /// One DTMC step power <- power * P with accum += weight * power, then
  /// the mass-window drop on the new power vector; returns
  /// ||power_new - power_old||_inf, taken before the drop.
  virtual double step(double weight) = 0;

  /// Steady state: accum += residual * power, in place of the window's
  /// remaining steps.  Called at most once per increment.
  virtual void fold(double residual) = 0;

  /// Moves the increment's result (the accumulator) into `current`.
  virtual void read_back(std::vector<double>& current) = 0;

  /// What the increment's steps cost and dropped; read after read_back().
  struct IncrementWork {
    /// Loop rows stepped, summed over the increment's steps.
    std::uint64_t rows_iterated = 0;
    /// Mass dropped: per chunk over the steps, then in chunk order.
    double dropped_mass = 0.0;
  };
  virtual IncrementWork increment_work() const = 0;
};

/// The one uniformisation increment (see the file comment).
class UniformizationDriver {
 public:
  /// `epsilon` is the truncation error budget per time increment; throws
  /// InvalidArgument unless it lies in (0, 1).
  ///
  /// `steady_state_detection` enables early termination: once
  /// (window.right - n) * ||pi P^n - pi P^(n-1)||_inf <= epsilon / 2 on two
  /// consecutive steps, the rest of the window is short-circuited by
  /// adding the entire residual tail mass times the converged vector.
  /// This is the classic PRISM/MRMC steady-state heuristic with a
  /// budgeted bound in place of the usual absolute cut, charged against
  /// the same per-increment budget as the Fox-Glynn truncation: exact when
  /// the per-step changes keep shrinking (they do once the chain has
  /// settled; a row-stochastic P does not contract the sup norm in
  /// general, which is why the consecutive-step guard and the
  /// detection-on/off agreement tests back the bound empirically).  On
  /// long horizons of absorbing chains (the battery-empty tail of Fig. 8)
  /// this skips most of the window.
  UniformizationDriver(double epsilon, bool steady_state_detection);

  /// The uniformisation rate for `chain`: 1.02 * max_exit_rate (1 for an
  /// all-absorbing generator).  A rate slightly above the maximum keeps
  /// the diagonal of P positive, which damps oscillation in stiff chains.
  static double select_rate(const Ctmc& chain);

  /// Advances `current`, pi(t_k) in the executor's loop space, by one
  /// increment of length dt > 0 at uniformisation rate `rate` through
  /// `executor`: the increment's Poisson window, load, steps, detection,
  /// fold and read_back.  Adds the increment's counters (iterations,
  /// savings, detection hits, windows computed or reused, rows iterated,
  /// dropped mass) to `stats` and leaves its other fields alone.
  void advance(StepExecutor& executor, double rate,
               std::vector<double>& current, double dt,
               TransientStats& stats);

 private:
  double epsilon_;
  bool steady_state_detection_;
  // Fox-Glynn windows memoised across increments and solves.
  UniformizationPlan plan_;
};

}  // namespace kibamrm::markov
