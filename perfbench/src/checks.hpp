// Correctness checks of the benchmark: every curve an op returns is
// checked, and a failed check counts as a failed op.
//
//  * check_cdf: the curve is a valid CDF -- no NaN, every value in [0, 1],
//    monotone within the curve's tolerance.
//  * max_deviation: per-point agreement with a reference curve.
//  * CountGuard: exact work counters (states, nonzeros, DTMC steps, ...)
//    must repeat bit for bit across every op of a run; a mismatch is
//    nondeterminism, reported as a failure, never as noise.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Per-point tolerance of every curve comparison (reference and engine
/// cross-checks).
inline constexpr double kCurveTolerance = 1e-6;

/// Empty string when `probabilities` is a valid CDF under `tolerance`,
/// else a one-line reason.
std::string check_cdf(const std::vector<double>& probabilities,
                      double tolerance);

/// max_i |a[i] - b[i]|; infinity when the sizes differ or a value is NaN.
double max_deviation(const std::vector<double>& a,
                     const std::vector<double>& b);

/// A reference curve on a fixed time grid, stored as text: '#' comment
/// lines, then one "time probability" pair per line.
struct ReferenceCurve {
  std::vector<double> times;
  std::vector<double> probabilities;
  std::vector<std::string> comments;
};

/// Throws std::runtime_error when the file is missing or malformed.
ReferenceCurve load_reference(const std::string& path);
void save_reference(const std::string& path, const ReferenceCurve& curve);

using Counts = std::map<std::string, std::uint64_t>;

class CountGuard {
 public:
  /// Compares `counts` against the first set seen; returns false (and
  /// remembers the mismatch) when any counter differs.
  bool observe(const Counts& counts);

  const Counts& first() const { return first_; }
  std::uint64_t mismatches() const { return mismatches_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  bool seen_ = false;
  Counts first_;
  std::uint64_t mismatches_ = 0;
  std::vector<std::string> notes_;
};

}  // namespace perfbench
