#include "kibamrm/common/spill_io.hpp"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "kibamrm/common/error.hpp"

namespace kibamrm::common {

namespace {

constexpr std::size_t kAlignment = 4096;

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw Error(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

AlignedBuffer::~AlignedBuffer() { std::free(data_); }

AlignedBuffer::AlignedBuffer(AlignedBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0)) {}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& other) noexcept {
  if (this != &other) {
    std::free(data_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
  }
  return *this;
}

void AlignedBuffer::resize(std::size_t bytes) {
  if (bytes <= capacity_) {
    size_ = bytes;
    return;
  }
  const std::size_t rounded = (bytes + kAlignment - 1) / kAlignment *
                              kAlignment;
  void* fresh = nullptr;
  if (posix_memalign(&fresh, kAlignment, rounded) != 0 || fresh == nullptr) {
    throw Error("spill buffer allocation of " + std::to_string(rounded) +
                " bytes failed");
  }
  std::free(data_);
  data_ = static_cast<std::byte*>(fresh);
  size_ = bytes;
  capacity_ = rounded;
}

SpillFile::~SpillFile() {
  if (fd_ >= 0) ::close(fd_);
}

SpillFile::SpillFile(SpillFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)) {}

SpillFile& SpillFile::operator=(SpillFile&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

SpillFile SpillFile::create(const std::string& path) {
  SpillFile file;
  file.fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0600);
  if (file.fd_ < 0) throw_errno("cannot create spill file", path);
  file.path_ = path;
  return file;
}

SpillFile SpillFile::open_readonly(const std::string& path) {
  SpillFile file;
  file.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (file.fd_ < 0) throw_errno("cannot open spill file", path);
  file.path_ = path;
  return file;
}

void SpillFile::read_exact(void* dst, std::size_t bytes,
                           std::uint64_t offset) const {
  KIBAMRM_REQUIRE(fd_ >= 0, "read from a closed spill file");
  auto* out = static_cast<std::byte*>(dst);
  std::size_t done = 0;
  while (done < bytes) {
    const ssize_t got = ::pread(fd_, out + done, bytes - done,
                                static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      throw_errno("spill read failed on", path_);
    }
    if (got == 0) {
      throw Error("spill file '" + path_ + "' truncated: wanted " +
                  std::to_string(bytes) + " bytes at offset " +
                  std::to_string(offset) + ", file ended after " +
                  std::to_string(done));
    }
    done += static_cast<std::size_t>(got);
  }
}

void SpillFile::write_exact(const void* src, std::size_t bytes,
                            std::uint64_t offset) {
  KIBAMRM_REQUIRE(fd_ >= 0, "write to a closed spill file");
  const auto* in = static_cast<const std::byte*>(src);
  std::size_t done = 0;
  while (done < bytes) {
    const ssize_t put = ::pwrite(fd_, in + done, bytes - done,
                                 static_cast<off_t>(offset + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      throw_errno("spill write failed on", path_);
    }
    done += static_cast<std::size_t>(put);
  }
}

std::uint64_t SpillFile::size() const {
  KIBAMRM_REQUIRE(fd_ >= 0, "size of a closed spill file");
  struct stat info;
  if (fstat(fd_, &info) != 0) throw_errno("cannot stat spill file", path_);
  return static_cast<std::uint64_t>(info.st_size);
}

void SpillFile::advise_willneed(std::uint64_t offset,
                                std::uint64_t bytes) const {
#if defined(POSIX_FADV_WILLNEED)
  if (fd_ >= 0) {
    // Best-effort readahead.
    (void)posix_fadvise(fd_, static_cast<off_t>(offset),
                        static_cast<off_t>(bytes), POSIX_FADV_WILLNEED);
  }
#else
  (void)offset;
  (void)bytes;
#endif
}

void SpillFile::sync() {
  KIBAMRM_REQUIRE(fd_ >= 0, "sync of a closed spill file");
#if defined(__APPLE__)
  if (fsync(fd_) != 0) throw_errno("cannot sync spill file", path_);
#else
  if (fdatasync(fd_) != 0) throw_errno("cannot sync spill file", path_);
#endif
}

void SpillFile::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SpillFile::unlink_keeping_open() {
  if (!path_.empty()) {
    (void)::unlink(path_.c_str());
  }
}

std::string resolve_spill_dir(const std::string& requested) {
  if (!requested.empty()) {
    struct stat info;
    if (stat(requested.c_str(), &info) != 0 || !S_ISDIR(info.st_mode)) {
      throw InvalidArgument("spill directory '" + requested +
                            "' does not exist or is not a directory");
    }
    return requested;
  }
  const char* tmpdir = std::getenv("TMPDIR");
  return tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp";
}

std::string unique_spill_path(const std::string& dir,
                              const std::string& stem) {
  static std::atomic<std::uint64_t> counter{0};
  return dir + "/" + stem + "." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1)) + ".spill";
}

}  // namespace kibamrm::common
