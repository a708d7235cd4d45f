// Tests for the out-of-core tile store: exact replication of the
// in-memory uniformise-transpose-compact pipeline, bitwise kernel parity
// at every tile size, round-trip serialization, and the corruption /
// truncation error paths (a damaged spill file must surface as
// kibamrm::Error, never as UB in a kernel trusting a bad offset).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "kibamrm/common/error.hpp"
#include "kibamrm/common/spill_io.hpp"
#include "kibamrm/core/expanded_ctmc.hpp"
#include "kibamrm/linalg/fused_gather.hpp"
#include "kibamrm/linalg/tile_store.hpp"
#include "kibamrm/workload/onoff_model.hpp"

namespace kibamrm::linalg {
namespace {

core::KibamRmModel fig8_kibam() {
  return core::KibamRmModel(
      workload::make_onoff_model({.frequency = 1.0, .erlang_k = 1,
                                  .on_current = 0.96}),
      {.capacity = 7200.0, .available_fraction = 0.625,
       .flow_constant = 4.5e-5});
}

/// A real expanded battery generator plus the reference compacted
/// transposed P the tile store must reproduce bit for bit.
struct Reference {
  CsrMatrix generator{1, 1};
  double rate = 0.0;
  std::vector<std::uint32_t> reachable;
  CsrMatrix pt{1, 1};
};

Reference make_reference(double delta) {
  const auto expanded = core::build_expanded_chain(fig8_kibam(), delta);
  Reference ref;
  ref.generator = expanded.chain.generator();
  ref.rate = 1.02 * expanded.chain.max_exit_rate();
  std::vector<std::uint32_t> seeds;
  for (std::size_t i = 0; i < expanded.initial.size(); ++i) {
    if (expanded.initial[i] != 0.0) {
      seeds.push_back(static_cast<std::uint32_t>(i));
    }
  }
  const CsrMatrix p = ref.generator.uniformized(ref.rate);
  ref.reachable = p.reachable_rows(seeds);
  ref.pt = p.transposed_submatrix(ref.reachable);
  return ref;
}

std::string temp_store_path(const std::string& tag) {
  return common::unique_spill_path(common::resolve_spill_dir(""),
                                   "kibamrm-test-" + tag);
}

/// RAII deletion for stores tests keep on disk to reopen/corrupt.
struct PathGuard {
  std::string path;
  ~PathGuard() { std::remove(path.c_str()); }
};

TEST(TileStore, ReachableClosureMatchesMaterializedP) {
  const auto expanded = core::build_expanded_chain(fig8_kibam(), 300.0);
  const double rate = 1.02 * expanded.chain.max_exit_rate();
  std::vector<std::uint32_t> seeds;
  for (std::size_t i = 0; i < expanded.initial.size(); ++i) {
    if (expanded.initial[i] != 0.0) {
      seeds.push_back(static_cast<std::uint32_t>(i));
    }
  }
  const auto streamed =
      tile_store_reachable_rows(expanded.chain.generator(), seeds, rate);
  const auto materialized = expanded.chain.generator()
                                .uniformized(rate)
                                .reachable_rows(seeds);
  EXPECT_EQ(streamed, materialized);
}

TEST(TileStore, StreamingBuildReproducesCompactedTransposeExactly) {
  const Reference ref = make_reference(100.0);
  // Several tile sizes, including one small enough to force many tiles.
  for (const std::size_t tile_bytes :
       {std::size_t{4096}, std::size_t{65536}, std::size_t{64} << 20}) {
    PathGuard guard{temp_store_path("exact")};
    TileStore store =
        TileStore::build(ref.generator, ref.reachable, ref.rate,
                         {.tile_bytes = tile_bytes}, guard.path);
    ASSERT_EQ(store.rows(), ref.pt.rows());
    ASSERT_EQ(store.nonzeros(), ref.pt.nonzeros());
    if (tile_bytes == 4096) {
      EXPECT_GT(store.tile_count(), 1u) << "4KB tiles must split this chain";
    }

    // One fused step over the tiles against the reference CSR kernel --
    // bitwise equality of out, accum and the sup-norm delta.
    std::vector<double> x(store.rows());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = 1.0 / static_cast<double>(i + 2);
    }
    const double weight = 0.37;
    std::vector<double> out_ref(store.rows(), 0.0);
    std::vector<double> accum_ref(store.rows(), 0.5);
    const double delta_ref = ref.pt.multiply_fused_range(
        x, out_ref, accum_ref, weight, 0, ref.pt.rows());

    std::vector<double> out(store.rows(), 0.0);
    std::vector<double> accum(store.rows(), 0.5);
    double delta = 0.0;
    common::AlignedBuffer slab;
    for (std::size_t t = 0; t < store.tile_count(); ++t) {
      store.read_tile(t, slab);
      const std::size_t rows =
          store.tile_row_end(t) - store.tile_row_begin(t);
      // Shard the tile to cover the partial-range path too.
      const auto ranges = store.balanced_tile_ranges(t, slab, 3);
      ASSERT_EQ(ranges.front(), 0u);
      ASSERT_EQ(ranges.back(), rows);
      for (std::size_t s = 0; s + 1 < ranges.size(); ++s) {
        delta = std::max(delta, store.multiply_fused_tile(
                                    t, slab, x, out, accum, weight,
                                    ranges[s], ranges[s + 1]));
      }
    }
    EXPECT_EQ(out, out_ref) << "tile_bytes = " << tile_bytes;
    EXPECT_EQ(accum, accum_ref) << "tile_bytes = " << tile_bytes;
    EXPECT_EQ(delta, delta_ref) << "tile_bytes = " << tile_bytes;
  }
}

TEST(TileStore, RoundTripReopenMatchesFreshBuild) {
  const Reference ref = make_reference(300.0);
  PathGuard guard{temp_store_path("roundtrip")};
  std::vector<std::size_t> tile_rows;
  std::uint64_t nonzeros = 0;
  {
    TileStore store =
        TileStore::build(ref.generator, ref.reachable, ref.rate,
                         {.tile_bytes = 8192}, guard.path);
    nonzeros = store.nonzeros();
    for (std::size_t t = 0; t < store.tile_count(); ++t) {
      tile_rows.push_back(store.tile_row_end(t));
    }
  }
  // Reopen from disk only; every tile must validate and the kernel must
  // agree with the in-memory reference.
  TileStore reopened = TileStore::open(guard.path);
  EXPECT_EQ(reopened.nonzeros(), nonzeros);
  ASSERT_EQ(reopened.tile_count(), tile_rows.size());
  for (std::size_t t = 0; t < reopened.tile_count(); ++t) {
    EXPECT_EQ(reopened.tile_row_end(t), tile_rows[t]);
  }
  std::vector<double> x(reopened.rows(), 0.25);
  std::vector<double> out(reopened.rows(), 0.0);
  std::vector<double> accum(reopened.rows(), 0.0);
  std::vector<double> out_ref(reopened.rows(), 0.0);
  std::vector<double> accum_ref(reopened.rows(), 0.0);
  ref.pt.multiply_fused_range(x, out_ref, accum_ref, 1.0, 0, ref.pt.rows());
  common::AlignedBuffer slab;
  for (std::size_t t = 0; t < reopened.tile_count(); ++t) {
    ASSERT_NO_THROW(reopened.read_tile(t, slab));
    const std::size_t rows =
        reopened.tile_row_end(t) - reopened.tile_row_begin(t);
    reopened.multiply_fused_tile(t, slab, x, out, accum, 1.0, 0, rows);
  }
  EXPECT_EQ(out, out_ref);
}

TEST(TileStore, DiagonalRunStatsMatchStructureStats) {
  const Reference ref = make_reference(300.0);
  PathGuard guard{temp_store_path("stats")};
  const TileStore store =
      TileStore::build(ref.generator, ref.reachable, ref.rate,
                       {.tile_bytes = 8192}, guard.path);
  const StructureStats expected = structure_stats(ref.pt);
  EXPECT_EQ(store.build_stats().bandwidth, expected.bandwidth);
  EXPECT_EQ(store.build_stats().diagonal_rows, expected.diagonal_rows);
  EXPECT_EQ(store.build_stats().longest_diagonal_run,
            expected.longest_diagonal_run);
}

TEST(TileStore, CorruptSlabByteThrowsOnRead) {
  const Reference ref = make_reference(300.0);
  PathGuard guard{temp_store_path("corrupt")};
  {
    TileStore store =
        TileStore::build(ref.generator, ref.reachable, ref.rate,
                         {.tile_bytes = 8192}, guard.path);
  }
  {
    // Flip one byte inside the first slab (slabs start at offset 4096).
    std::fstream file(guard.path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(4096 + 100);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(4096 + 100);
    file.write(&byte, 1);
  }
  // Header and index are intact, so open succeeds; the checksum catches
  // the damage on the first read of the poisoned tile.
  TileStore store = TileStore::open(guard.path);
  common::AlignedBuffer slab;
  EXPECT_THROW(store.read_tile(0, slab), Error);
}

TEST(TileStore, CorruptHeaderThrowsOnOpen) {
  const Reference ref = make_reference(450.0);
  PathGuard guard{temp_store_path("header")};
  {
    TileStore store =
        TileStore::build(ref.generator, ref.reachable, ref.rate,
                         {.tile_bytes = 1 << 20}, guard.path);
  }
  {
    std::fstream file(guard.path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekp(16);  // inside the row-count field
    const char poison = 0x7f;
    file.write(&poison, 1);
  }
  EXPECT_THROW(TileStore::open(guard.path), Error);
}

TEST(TileStore, TruncatedFileThrowsNotUB) {
  const Reference ref = make_reference(300.0);
  PathGuard guard{temp_store_path("truncated")};
  std::uint64_t full_size = 0;
  {
    TileStore store =
        TileStore::build(ref.generator, ref.reachable, ref.rate,
                         {.tile_bytes = 8192}, guard.path);
    full_size = store.file_bytes();
  }
  // Cut the file at several points: inside the index (open fails), inside
  // a slab (open may succeed, read fails), inside the header.
  for (const std::uint64_t keep :
       {full_size / 2, std::uint64_t{5000}, std::uint64_t{40}}) {
    {
      std::ofstream file(guard.path + ".cut", std::ios::binary);
      std::ifstream source(guard.path, std::ios::binary);
      std::vector<char> bytes(keep);
      source.read(bytes.data(), static_cast<std::streamsize>(keep));
      file.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    PathGuard cut_guard{guard.path + ".cut"};
    try {
      TileStore store = TileStore::open(cut_guard.path);
      common::AlignedBuffer slab;
      for (std::size_t t = 0; t < store.tile_count(); ++t) {
        store.read_tile(t, slab);
      }
      FAIL() << "truncation to " << keep << " bytes went unnoticed";
    } catch (const Error&) {
      // Expected: every truncation surfaces as kibamrm::Error.
    }
  }
}

TEST(TileStore, RejectsBadArguments) {
  const Reference ref = make_reference(450.0);
  PathGuard guard{temp_store_path("args")};
  EXPECT_THROW(TileStore::build(ref.generator, {}, ref.rate, {}, guard.path),
               Error);
  EXPECT_THROW(TileStore::build(ref.generator, ref.reachable, 0.0, {},
                                guard.path),
               Error);
  EXPECT_THROW(TileStore::open("/nonexistent/dir/nofile.spill"), Error);
  EXPECT_THROW(common::resolve_spill_dir("/nonexistent/dir/zzz"),
               InvalidArgument);
}

}  // namespace
}  // namespace kibamrm::linalg
