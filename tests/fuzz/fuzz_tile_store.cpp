// libFuzzer target for the TileStore spill-format deserialization
// surface.
//
// The spill file is process-local scratch, but the ooc backend trusts
// its header, tile index and slab framing to drive buffer sizes and
// kernel offsets.  The contract under test: an arbitrary byte soup
// presented as a spill file either opens and streams cleanly or raises
// kibamrm::Error from open()/read_tile() validation -- never an
// unwrapped std exception, never a kernel dereferencing a damaged
// offset.  Built with -DKIBAMRM_FUZZ=ON (clang) this is a libFuzzer
// binary; otherwise a standalone driver that replays corpus files passed
// as arguments, so the same translation unit runs under ctest on
// gcc-only machines.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "kibamrm/common/error.hpp"
#include "kibamrm/common/spill_io.hpp"
#include "kibamrm/linalg/tile_store.hpp"

namespace {

// A fuzz input is a few KB; any index claiming dimensions past these is
// hostile by construction and only interesting for whether validation
// rejects it, not for running the kernel over giant buffers.
constexpr std::size_t kMaxRows = std::size_t{1} << 16;
constexpr std::size_t kMaxSlabBytes = std::size_t{1} << 22;
constexpr std::size_t kMaxTilesExercised = 64;

const std::string& scratch_path() {
  static const std::string path = kibamrm::common::unique_spill_path(
      kibamrm::common::resolve_spill_dir(""), "kibamrm-fuzz-tile");
  return path;
}

/// Presents the input as a spill file and drives the full read surface:
/// open -> per-tile read (checksum + structural validation) -> fused
/// kernel -> range balancing.
void exercise(const std::uint8_t* data, std::size_t size) {
  const std::string& path = scratch_path();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }

  try {
    kibamrm::linalg::TileStore store =
        kibamrm::linalg::TileStore::open(path);
    if (store.rows() == 0 || store.rows() > kMaxRows ||
        store.max_slab_bytes() > kMaxSlabBytes) {
      std::remove(path.c_str());
      return;
    }
    std::vector<double> x(store.rows(), 1.0);
    std::vector<double> out(store.rows(), 0.0);
    std::vector<double> accum(store.rows(), 0.0);
    kibamrm::common::AlignedBuffer slab;
    const std::size_t tiles =
        std::min(store.tile_count(), kMaxTilesExercised);
    for (std::size_t tile = 0; tile < tiles; ++tile) {
      store.prefetch_tile(tile);
      store.read_tile(tile, slab);
      const std::size_t local_rows =
          store.tile_row_end(tile) - store.tile_row_begin(tile);
      store.multiply_fused_tile(tile, slab, x, out, accum, 0.5, 0,
                                local_rows);
      store.balanced_tile_ranges(tile, slab, 4);
    }
  } catch (const kibamrm::Error&) {
    // Rejection is the expected outcome for most inputs.
  }
  std::remove(path.c_str());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  exercise(data, size);
  return 0;
}

#ifdef KIBAMRM_FUZZ_STANDALONE
#include <iterator>

// Corpus replay driver: each argument is a file of fuzz input.
int main(int argc, char** argv) {
  int replayed = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream file(argv[i], std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "fuzz_tile_store: cannot open %s\n", argv[i]);
      return 1;
    }
    const std::string bytes((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
    ++replayed;
  }
  std::printf("fuzz_tile_store: replayed %d corpus file(s)\n", replayed);
  return 0;
}
#endif
