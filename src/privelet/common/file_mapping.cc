#include "privelet/common/file_mapping.h"

#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "privelet/common/check.h"
#include "privelet/common/io_util.h"

#include <cerrno>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace privelet::common {

namespace {

std::string ResolveScratchDir(const std::string& dir) {
  if (!dir.empty()) return dir;
  const char* tmpdir = std::getenv("TMPDIR");
  if (tmpdir != nullptr && tmpdir[0] != '\0') return tmpdir;
  return "/tmp";
}

}  // namespace

Result<MappedFile> MappedFile::Open(const std::string& path) {
  // O_NONBLOCK only so that a FIFO path fails the regular-file check below
  // instead of blocking the open; it does not affect regular files.
  const int fd = OpenRetry(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path + "': " + ErrnoMessage());
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const std::string msg = ErrnoMessage();
    CloseFd(fd);
    return Status::IOError("cannot stat '" + path + "': " + msg);
  }
  if (!S_ISREG(st.st_mode)) {
    CloseFd(fd);
    return Status::IOError("'" + path + "' is not a regular file");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    CloseFd(fd);
    return MappedFile();
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping holds its own reference to the file; the descriptor is
  // not needed past this point either way.
  CloseFd(fd);
  if (addr == MAP_FAILED) {
    return Status::IOError("cannot map '" + path + "': " + ErrnoMessage());
  }
  // Best-effort readahead hint: snapshot opens stream the whole file once
  // for the CRC check immediately after mapping.
#if defined(POSIX_MADV_WILLNEED)
  (void)::posix_madvise(addr, size, POSIX_MADV_WILLNEED);
#endif
  return MappedFile(addr, size, /*writable=*/false);
}

Result<MappedFile> MappedFile::CreateScratch(std::size_t size,
                                             const std::string& dir) {
  const std::string resolved = ResolveScratchDir(dir);
  std::vector<char> name(resolved.begin(), resolved.end());
  const char suffix[] = "/privelet_scratch.XXXXXX";
  name.insert(name.end(), suffix, suffix + sizeof(suffix));
  const int fd = ::mkstemp(name.data());
  if (fd < 0) {
    return Status::IOError("cannot create scratch file under '" + resolved +
                           "': " + ErrnoMessage());
  }
  // Unlink immediately: the mapping keeps the inode alive, and the space
  // is reclaimed no matter how the process exits.
  ::unlink(name.data());
  if (size == 0) {
    CloseFd(fd);
    MappedFile empty;
    empty.writable_ = true;
    return empty;
  }
  int rc;
  do {
    rc = ::ftruncate(fd, static_cast<off_t>(size));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const std::string msg = ErrnoMessage();
    CloseFd(fd);
    return Status::IOError("cannot size scratch file to " +
                           std::to_string(size) + " bytes: " + msg);
  }
  void* addr =
      ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  CloseFd(fd);
  if (addr == MAP_FAILED) {
    return Status::IOError("cannot map scratch file (" + std::to_string(size) +
                           " bytes): " + ErrnoMessage());
  }
  // Suppress readahead on scratch mappings: strided passes touch one
  // element per page, and physical readahead would stream whole tracts of
  // the file into the page cache for single-element reads. (This does not
  // stop fault-around, which maps already-cached pages near a read fault;
  // PageTouchedBytes accounts for that when pacing release-behind.)
#if defined(POSIX_MADV_RANDOM)
  (void)::posix_madvise(addr, size, POSIX_MADV_RANDOM);
#endif
  return MappedFile(addr, size, /*writable=*/true);
}

std::span<std::byte> MappedFile::mutable_bytes() const {
  PRIVELET_CHECK(writable_, "mutable_bytes() on a read-only mapping");
  return {static_cast<std::byte*>(addr_), size_};
}

void MappedFile::ReleaseResidency() const {
  // Only scratch mappings are writable, and their file backing keeps the
  // dropped pages' contents.
  if (writable_ && addr_ != nullptr) {
    (void)::madvise(addr_, size_, MADV_DONTNEED);
  }
}

void MappedFile::Reset() {
  if (addr_ != nullptr) {
    ::munmap(addr_, size_);
  }
  addr_ = nullptr;
  size_ = 0;
  writable_ = false;
}

MappedFile::~MappedFile() { Reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : addr_(std::exchange(other.addr_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      writable_(std::exchange(other.writable_, false)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Reset();
    addr_ = std::exchange(other.addr_, nullptr);
    size_ = std::exchange(other.size_, 0);
    writable_ = std::exchange(other.writable_, false);
  }
  return *this;
}

}  // namespace privelet::common
