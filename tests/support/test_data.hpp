// Per-suite test data, in the layout of the Nix unit tests: each test
// executable owns tests/data/<executable>/, and CMake passes that
// directory in through the KIBAMRM_TEST_DATA environment variable, so a
// suite sees only its own files.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace kibamrm::testing {

/// The running suite's data directory (KIBAMRM_TEST_DATA).  Throws
/// std::runtime_error when the variable is unset or names no directory,
/// e.g. when the binary runs outside ctest.
std::filesystem::path test_data_dir();

/// A stored lifetime curve: one "time probability" pair per line, both
/// C99 hex-float so the values round-trip bit for bit; lines starting
/// with '#' are comments.
struct GoldenCurve {
  std::vector<double> times;
  std::vector<double> probabilities;
};

/// Loads test_data_dir() / `name`; throws std::runtime_error on a missing
/// file or a malformed line.
GoldenCurve load_golden_curve(const std::string& name);

}  // namespace kibamrm::testing
