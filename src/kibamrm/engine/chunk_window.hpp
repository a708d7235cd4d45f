// The mass window's chunk geometry over one gather matrix, shared by the
// uniformisation step (engine::GatherExecutor) and the Krylov engine's
// Arnoldi sweeps (engine::KrylovBackend).
//
// The loop space is cut into the fixed chunks of the drop rule
// (markov::kDropChunkRows rows, markov::drop_cold_chunks).  A row of a
// gather matrix -- a compacted transpose, whose rows are the outputs --
// reads only the columns it stores, so a vector that is exactly zero
// outside a chunk hull H maps to one that is exactly zero outside
// widen(H): H plus every chunk whose rows read a column inside H.  Both
// engines iterate only that span and keep their buffers zero outside it,
// which are the values a full sweep would compute there.
//
// split() cuts a span into shards at chunk edges, balanced on stored
// entries plus rows, so one chunk is never split between shards.  Each
// output row of a gather sums in its own fixed order, so the result is
// bitwise the same for every shard partition and lane count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kibamrm/linalg/csr_matrix.hpp"

namespace kibamrm::engine {

/// Chunks [begin, end); empty when begin >= end.
struct ChunkSpan {
  std::size_t begin = 0;
  std::size_t end = 0;

  bool empty() const { return begin >= end; }
};

/// Pool shards per lane of a split span: each lane keeps a home block of
/// contiguous shards, and lanes that finish early steal whole shards.
inline constexpr std::size_t kShardsPerLane = 4;

class ChunkWindow {
 public:
  ChunkWindow() = default;

  /// Per-chunk column reach and work of `gather`, a square matrix whose
  /// rows are the outputs of a matvec.
  explicit ChunkWindow(const linalg::CsrMatrix& gather);

  std::size_t chunks() const { return reach_lo_.size(); }

  /// First row of `chunk`, clipped to rows() (so row(chunks()) == rows()).
  std::size_t row(std::size_t chunk) const;

  /// The span a matvec must iterate to map a vector that is zero outside
  /// `hull` exactly: every chunk whose rows read a column inside `hull`,
  /// plus `hull` itself.  Empty for an empty hull.
  ChunkSpan widen(ChunkSpan hull) const;

  /// Cuts `span` into shards at chunk edges and writes the boundaries
  /// (chunk indices, span.begin first, span.end last) to `bounds`.  With
  /// more than one lane and enough work to pay for waking the pool
  /// (pool_pays_off), the shards are kShardsPerLane * lanes parts balanced
  /// on stored entries plus rows, and the return value is true; otherwise
  /// the span runs inline in runs of a few chunks, so a caller that scans
  /// each shard right after writing it reads rows still in L1/L2.
  bool split(ChunkSpan span, std::size_t lanes,
             std::vector<std::size_t>& bounds) const;

  /// Zeroes the rows of `v` inside chunks `dirty` but outside `keep`.
  void clear_outside(std::vector<double>& v, ChunkSpan dirty,
                     ChunkSpan keep) const;

 private:
  std::size_t rows_ = 0;
  // Per chunk: the first and last chunk its rows read (lo > hi for a
  // chunk without stored entries), and the prefix sum of stored entries
  // plus rows over the chunks before it (size chunks + 1).
  std::vector<std::size_t> reach_lo_;
  std::vector<std::size_t> reach_hi_;
  std::vector<std::uint64_t> work_prefix_;
};

/// Chunks from the first to the last holding a non-zero entry (or a NaN)
/// of `v`; empty when `v` is all zero.
ChunkSpan nonzero_hull(const std::vector<double>& v);

/// Chunks from the first to the last c in `span` with live[c] != 0; empty
/// when none is.
ChunkSpan live_hull(const std::vector<std::uint8_t>& live, ChunkSpan span);

}  // namespace kibamrm::engine
