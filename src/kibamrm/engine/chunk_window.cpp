#include "kibamrm/engine/chunk_window.hpp"

#include <algorithm>
#include <span>

#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/markov/uniformization.hpp"

namespace kibamrm::engine {

namespace {

// Chunks per shard of an inline span: a caller that scans each shard
// right after stepping it reads rows written a few dozen kilobytes
// earlier, still in L1/L2.
constexpr std::size_t kInlineShardChunks = 16;

}  // namespace

ChunkWindow::ChunkWindow(const linalg::CsrMatrix& gather)
    : rows_(gather.rows()) {
  const std::span<const std::uint32_t> row_ptr = gather.row_pointers();
  const std::span<const std::uint32_t> col_idx = gather.column_indices();
  constexpr std::size_t kRows = markov::kDropChunkRows;
  const std::size_t chunks = markov::drop_chunk_count(rows_);
  reach_lo_.assign(chunks, chunks);
  reach_hi_.assign(chunks, 0);
  work_prefix_.assign(chunks + 1, 0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::size_t c = r / kRows;
    const std::uint32_t entries = row_ptr[r + 1] - row_ptr[r];
    work_prefix_[c + 1] += entries + 1;
    if (entries > 0) {
      // CSR columns are sorted: first/last stored column bound the row's
      // gather footprint.
      reach_lo_[c] =
          std::min<std::size_t>(reach_lo_[c], col_idx[row_ptr[r]] / kRows);
      reach_hi_[c] = std::max<std::size_t>(
          reach_hi_[c], col_idx[row_ptr[r + 1] - 1] / kRows);
    }
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    work_prefix_[c + 1] += work_prefix_[c];
  }
}

std::size_t ChunkWindow::row(std::size_t chunk) const {
  return std::min(chunk * markov::kDropChunkRows, rows_);
}

ChunkSpan ChunkWindow::widen(ChunkSpan hull) const {
  if (hull.empty()) return {};
  ChunkSpan span = hull;
  for (std::size_t c = 0; c < reach_lo_.size(); ++c) {
    if (reach_lo_[c] < hull.end && reach_hi_[c] >= hull.begin) {
      span.begin = std::min(span.begin, c);
      span.end = std::max(span.end, c + 1);
    }
  }
  return span;
}

bool ChunkWindow::split(ChunkSpan span, std::size_t lanes,
                        std::vector<std::size_t>& bounds) const {
  bounds.assign(1, span.begin);
  const std::uint64_t base = work_prefix_[span.begin];
  const std::uint64_t work = work_prefix_[span.end] - base;
  const std::size_t span_rows = row(span.end) - row(span.begin);
  const bool use_pool = pool_pays_off(lanes, work - span_rows, span_rows);
  if (use_pool) {
    const std::size_t parts = kShardsPerLane * lanes;
    for (std::size_t k = 1; k < parts; ++k) {
      const std::uint64_t target = base + work * k / parts;
      const std::size_t edge = static_cast<std::size_t>(
          std::lower_bound(work_prefix_.begin() +
                               static_cast<std::ptrdiff_t>(bounds.back() + 1),
                           work_prefix_.begin() +
                               static_cast<std::ptrdiff_t>(span.end),
                           target) -
          work_prefix_.begin());
      if (edge < span.end) bounds.push_back(edge);
    }
  } else {
    for (std::size_t c = span.begin + kInlineShardChunks; c < span.end;
         c += kInlineShardChunks) {
      bounds.push_back(c);
    }
  }
  bounds.push_back(span.end);
  return use_pool;
}

void ChunkWindow::clear_outside(std::vector<double>& v, ChunkSpan dirty,
                                ChunkSpan keep) const {
  const auto clear = [&](std::size_t c0, std::size_t c1) {
    if (c0 < c1) {
      std::fill(v.begin() + static_cast<std::ptrdiff_t>(row(c0)),
                v.begin() + static_cast<std::ptrdiff_t>(row(c1)), 0.0);
    }
  };
  if (keep.empty()) {
    clear(dirty.begin, dirty.end);
    return;
  }
  clear(dirty.begin, std::min(dirty.end, keep.begin));
  clear(std::max(dirty.begin, keep.end), dirty.end);
}

ChunkSpan nonzero_hull(const std::vector<double>& v) {
  const auto nonzero = [](double x) { return x != 0.0; };
  const auto first = std::find_if(v.begin(), v.end(), nonzero);
  if (first == v.end()) return {};
  const auto last = std::find_if(v.rbegin(), v.rend(), nonzero);
  return {static_cast<std::size_t>(first - v.begin()) /
              markov::kDropChunkRows,
          static_cast<std::size_t>(v.rend() - last - 1) /
                  markov::kDropChunkRows +
              1};
}

ChunkSpan live_hull(const std::vector<std::uint8_t>& live, ChunkSpan span) {
  ChunkSpan hull;
  for (std::size_t c = span.begin; c < span.end; ++c) {
    if (live[c] == 0) continue;
    if (hull.empty()) hull.begin = c;
    hull.end = c + 1;
  }
  return hull;
}

}  // namespace kibamrm::engine
