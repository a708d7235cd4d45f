#include "support/test_data.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace kibamrm::testing {

std::filesystem::path test_data_dir() {
  const char* dir = std::getenv("KIBAMRM_TEST_DATA");
  if (dir == nullptr || !std::filesystem::is_directory(dir)) {
    throw std::runtime_error(
        "KIBAMRM_TEST_DATA does not name a directory; run the suite "
        "through ctest, which sets it to tests/data/<suite>");
  }
  return dir;
}

GoldenCurve load_golden_curve(const std::string& name) {
  const std::filesystem::path path = test_data_dir() / name;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  GoldenCurve curve;
  std::string line;
  for (std::size_t number = 1; std::getline(in, line); ++number) {
    if (line.empty() || line.front() == '#') continue;
    // strtod, not operator>>: streams do not parse hex-float.
    const char* begin = line.c_str();
    char* end = nullptr;
    const double time = std::strtod(begin, &end);
    char* rest = nullptr;
    const double probability = std::strtod(end, &rest);
    if (end == begin || rest == end ||
        line.find_first_not_of(" \t", static_cast<std::size_t>(
                                          rest - begin)) != std::string::npos) {
      std::ostringstream message;
      message << path.string() << ':' << number << ": malformed curve line";
      throw std::runtime_error(message.str());
    }
    curve.times.push_back(time);
    curve.probabilities.push_back(probability);
  }
  return curve;
}

}  // namespace kibamrm::testing
