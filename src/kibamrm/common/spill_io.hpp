// File-backed spill storage for the out-of-core solver tier.
//
// The ooc backend writes the expanded chain's tiled transition structure
// to a spill file once per solve and streams it back tens of thousands of
// times; this header provides the thin POSIX layer it runs on:
//
//   SpillFile       RAII file descriptor with exact-length positional
//                   reads/writes (short transfers are errors, not partial
//                   successes) and readahead hints (posix_fadvise)
//   AlignedBuffer   page-aligned byte buffer (keeps the tile kernels'
//                   double arrays naturally aligned)
//   fnv1a64         checksum for tile slabs -- corruption and truncation
//                   must surface as kibamrm::Error, never as UB in a
//                   kernel that trusted a damaged offset table
//
// Everything throws kibamrm::Error subclasses on failure; callers never
// see errno directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "kibamrm/common/thread_annotations.hpp"

namespace kibamrm::common {

/// 64-bit FNV-1a over `bytes` bytes starting at `data`; `seed` chains
/// multi-span checksums (pass the previous digest).
std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

/// Page-aligned (4096-byte) heap buffer, movable, non-copyable.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(std::size_t bytes) { resize(bytes); }
  ~AlignedBuffer();

  AlignedBuffer(AlignedBuffer&& other) noexcept;
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept;
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  /// Grows (never shrinks) the allocation to at least `bytes`; contents
  /// are NOT preserved (tiles are always re-read whole).
  void resize(std::size_t bytes);

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;      // requested bytes
  std::size_t capacity_ = 0;  // allocated bytes (multiple of the alignment)
};

/// RAII POSIX file with positional exact-length IO.  The spill files are
/// single-writer single-format scratch, so there is no seek state: every
/// transfer names its offset.
///
/// KIBAMRM_EXTERNALLY_SYNCHRONIZED: a SpillFile is owned by exactly one
/// TileStore.  The mutating operations (create/open/close/unlink/sync/
/// write_exact) run on the owner's thread only; concurrent read_exact /
/// advise_willneed calls are safe because pread takes no descriptor
/// state (each call names its own offset) and fd_ / path_ are
/// immutable between open and close.  The ooc pipeline's IO lane is the
/// only reader during a streamed step, handed off through the pool's
/// dispatch barrier.
class KIBAMRM_EXTERNALLY_SYNCHRONIZED(
    "single owner; pread is stateless, members frozen between open/close")
    SpillFile {
 public:
  SpillFile() = default;
  ~SpillFile();

  SpillFile(SpillFile&& other) noexcept;
  SpillFile& operator=(SpillFile&& other) noexcept;
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Creates (truncating) a read-write spill file.
  static SpillFile create(const std::string& path);

  /// Opens an existing file read-only.
  static SpillFile open_readonly(const std::string& path);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Exact-length positional transfer; a short read (EOF inside the span,
  /// i.e. a truncated file) or any IO error throws kibamrm::Error.
  void read_exact(void* dst, std::size_t bytes, std::uint64_t offset) const;
  void write_exact(const void* src, std::size_t bytes, std::uint64_t offset);

  /// Byte size reported by fstat (throws when the descriptor is closed).
  std::uint64_t size() const;

  /// Readahead hint for an upcoming read_exact; silently a no-op where
  /// posix_fadvise is unavailable or the filesystem ignores it.
  void advise_willneed(std::uint64_t offset, std::uint64_t bytes) const;

  /// Flushes file contents to storage (fdatasync).
  void sync();

  void close();

  /// Unlinks the directory entry while keeping the descriptor open: the
  /// kernel reclaims the space when the last descriptor closes, so spill
  /// files cannot outlive a crashed solve.
  void unlink_keeping_open();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Directory for spill files: `requested` when non-empty (must exist),
/// otherwise $TMPDIR falling back to /tmp.
std::string resolve_spill_dir(const std::string& requested);

/// Unique not-yet-existing path `<dir>/<stem>.<pid>.<counter>.spill`.
std::string unique_spill_path(const std::string& dir,
                              const std::string& stem);

}  // namespace kibamrm::common
