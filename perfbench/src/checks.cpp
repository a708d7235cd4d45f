#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::string check_cdf(const std::vector<double>& probabilities,
                      double tolerance) {
  char reason[160];
  if (probabilities.empty()) return "empty curve";
  for (std::size_t i = 0; i < probabilities.size(); ++i) {
    const double p = probabilities[i];
    if (!std::isfinite(p)) {
      std::snprintf(reason, sizeof reason, "point %zu is not finite", i);
      return reason;
    }
    if (p < 0.0 || p > 1.0) {
      std::snprintf(reason, sizeof reason, "point %zu = %.17g outside [0, 1]",
                    i, p);
      return reason;
    }
    if (i > 0 && p < probabilities[i - 1] - tolerance) {
      std::snprintf(reason, sizeof reason,
                    "point %zu drops by %.3g (tolerance %.3g)", i,
                    probabilities[i - 1] - p, tolerance);
      return reason;
    }
  }
  return "";
}

double max_deviation(const std::vector<double>& a,
                     const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(a[i] - b[i]);
    if (std::isnan(d)) return std::numeric_limits<double>::infinity();
    if (d > worst) worst = d;
  }
  return worst;
}

ReferenceCurve load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference " + path);
  ReferenceCurve curve;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      curve.comments.push_back(line);
      continue;
    }
    std::istringstream fields(line);
    double t = 0.0;
    double p = 0.0;
    if (!(fields >> t >> p)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    curve.times.push_back(t);
    curve.probabilities.push_back(p);
  }
  if (curve.times.empty()) throw std::runtime_error("empty reference " + path);
  return curve;
}

void save_reference(const std::string& path, const ReferenceCurve& curve) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write reference " + path);
  for (const std::string& comment : curve.comments) out << comment << '\n';
  char line[96];
  for (std::size_t i = 0; i < curve.times.size(); ++i) {
    std::snprintf(line, sizeof line, "%.17g %.17g\n", curve.times[i],
                  curve.probabilities[i]);
    out << line;
  }
}

bool CountGuard::observe(const Counts& counts) {
  if (!seen_) {
    seen_ = true;
    first_ = counts;
    return true;
  }
  if (counts == first_) return true;
  ++mismatches_;
  for (const auto& [name, value] : counts) {
    const auto it = first_.find(name);
    if (it == first_.end() || it->second != value) {
      notes_.push_back(name + " = " + std::to_string(value) + ", first op " +
                       (it == first_.end() ? std::string("had none")
                                           : std::to_string(it->second)));
    }
  }
  return false;
}

}  // namespace perfbench
