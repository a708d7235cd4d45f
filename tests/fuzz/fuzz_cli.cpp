// libFuzzer target for the CLI-argument surface.
//
// Every bench/example binary funnels argv through common::CliArgs and the
// small string parsers behind --reorder / --kernels / KIBAMRM_PROP_SEED.
// The contract: any byte soup either parses or raises kibamrm::Error --
// never an unwrapped std exception, never UB.  Built with
// -DKIBAMRM_FUZZ=ON (clang) this is a libFuzzer binary; otherwise a
// standalone driver that replays corpus files passed as arguments, so the
// same translation unit runs under ctest on gcc-only machines.
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kibamrm/common/cli.hpp"
#include "kibamrm/common/error.hpp"
#include "kibamrm/core/expanded_ctmc.hpp"
#include "kibamrm/linalg/kernels.hpp"

namespace {

/// Splits the fuzz input on whitespace/NUL into an argv-shaped token list.
std::vector<std::string> tokenize(const std::uint8_t* data,
                                  std::size_t size) {
  std::vector<std::string> tokens;
  std::string current;
  for (std::size_t i = 0; i < size; ++i) {
    const char c = static_cast<char>(data[i]);
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\0') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

/// Drives every accessor a real bench binary uses against one parse.
void exercise(const std::vector<std::string>& tokens) {
  std::vector<const char*> argv = {"fuzz_cli"};
  for (const std::string& token : tokens) argv.push_back(token.c_str());

  try {
    kibamrm::common::CliArgs args(static_cast<int>(argv.size()),
                                  argv.data());
    args.get_double("delta", 400.0);
    args.get_int("points", 8);
    args.get_positive_int("runs", 1);
    args.get_nonnegative_int("threads", 0);
    args.get_double_list("delta", {400.0});
    args.get("out", "");
    args.has("batch");
    args.get_choice("engine", "uniformization",
                    {"uniformization", "parallel", "dense", "krylov"});
    args.get_choice("reorder", "level", {"none", "level"});
    args.declare("delta")
        .declare("points")
        .declare("runs")
        .declare("threads")
        .declare("out")
        .declare("batch")
        .declare("engine")
        .declare("reorder");
    args.validate();
  } catch (const kibamrm::Error&) {
    // Rejection is the expected outcome for most inputs.
  }

  // The two string parsers the CLI layer feeds user text into.
  if (!tokens.empty()) {
    try {
      kibamrm::linalg::kernels::parse_dispatch(tokens.front());
    } catch (const kibamrm::Error&) {
    }
    try {
      kibamrm::core::parse_state_ordering(tokens.front());
    } catch (const kibamrm::Error&) {
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  exercise(tokenize(data, size));
  return 0;
}

#ifdef KIBAMRM_FUZZ_STANDALONE
#include <cstdio>
#include <fstream>
#include <iterator>

// Corpus replay driver: each argument is a file of fuzz input.
int main(int argc, char** argv) {
  int replayed = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream file(argv[i], std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "fuzz_cli: cannot open %s\n", argv[i]);
      return 1;
    }
    const std::string bytes((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
    ++replayed;
  }
  std::printf("fuzz_cli: replayed %d corpus file(s)\n", replayed);
  return 0;
}
#endif
