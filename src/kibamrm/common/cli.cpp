#include "kibamrm/common/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "kibamrm/common/error.hpp"

namespace kibamrm::common {

CliArgs::CliArgs(int argc, const char* const* argv) {
  KIBAMRM_REQUIRE(argc >= 1, "argc must be at least 1");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--key value` when the next token is not itself an option; negative
    // numbers ("-3") are treated as values.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = std::string(argv[i + 1]);
      ++i;
    } else {
      options_[arg] = std::nullopt;
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return options_.contains(name);
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || !it->second.has_value()) return fallback;
  return *it->second;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || !it->second.has_value()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second->c_str(), &end);
  KIBAMRM_REQUIRE(end != nullptr && *end == '\0',
                  "option --" + name + " is not a valid number: " +
                      *it->second);
  return value;
}

int CliArgs::get_int(const std::string& name, int fallback) const {
  const double value = get_double(name, static_cast<double>(fallback));
  const int as_int = static_cast<int>(value);
  KIBAMRM_REQUIRE(static_cast<double>(as_int) == value,
                  "option --" + name + " must be an integer");
  return as_int;
}

int CliArgs::get_int_at_least(const std::string& name, int fallback,
                              int minimum, const char* adjective) const {
  const auto it = options_.find(name);
  if (it == options_.end() || !it->second.has_value()) return fallback;
  const int value = get_int(name, fallback);
  KIBAMRM_REQUIRE(value >= minimum, "option --" + name + " must be a " +
                                        adjective + " integer, got: " +
                                        *it->second);
  return value;
}

int CliArgs::get_positive_int(const std::string& name, int fallback) const {
  return get_int_at_least(name, fallback, 1, "positive");
}

int CliArgs::get_nonnegative_int(const std::string& name, int fallback) const {
  return get_int_at_least(name, fallback, 0, "non-negative");
}

std::vector<double> CliArgs::get_double_list(
    const std::string& name, std::vector<double> fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || !it->second.has_value()) return fallback;
  std::vector<double> values;
  std::stringstream stream(*it->second);
  std::string token;
  while (std::getline(stream, token, ',')) {
    char* end = nullptr;
    values.push_back(std::strtod(token.c_str(), &end));
    KIBAMRM_REQUIRE(end != nullptr && *end == '\0',
                    "option --" + name + " has a malformed entry: " + token);
  }
  KIBAMRM_REQUIRE(!values.empty(), "option --" + name + " list is empty");
  return values;
}

std::string CliArgs::get_choice(const std::string& name,
                                const std::string& fallback,
                                const std::vector<std::string>& allowed) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const auto list_choices = [&allowed](std::string message) {
    for (const std::string& choice : allowed) message += ' ' + choice;
    return message;
  };
  // `--name` without a value is a malformed selection, not an absent one:
  // silently running the fallback would defeat the fail-loudly contract.
  if (!it->second.has_value()) {
    throw InvalidArgument(
        list_choices("option --" + name + " requires a value; choices:"));
  }
  const std::string& value = *it->second;
  if (std::find(allowed.begin(), allowed.end(), value) != allowed.end()) {
    return value;
  }
  throw InvalidArgument(list_choices("option --" + name +
                                     " has unknown value '" + value +
                                     "'; choices:"));
}

CliArgs& CliArgs::declare(const std::string& name) {
  declared_.push_back(name);
  return *this;
}

void CliArgs::validate() const {
  for (const auto& [name, value] : options_) {
    (void)value;
    if (std::find(declared_.begin(), declared_.end(), name) ==
        declared_.end()) {
      throw InvalidArgument("unknown option --" + name);
    }
  }
}

}  // namespace kibamrm::common
