#include "privelet/common/io_util.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace privelet::common {

std::string ErrnoMessage() {
  char buf[128];
  // GNU strerror_r may return a static string instead of filling buf.
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  return strerror_r(errno, buf, sizeof(buf));
#else
  return strerror_r(errno, buf, sizeof(buf)) == 0 ? buf : "unknown error";
#endif
}

int OpenRetry(const char* path, int flags, unsigned mode) {
  int fd;
  do {
    fd = ::open(path, flags, static_cast<mode_t>(mode));
  } while (fd < 0 && errno == EINTR);
  return fd;
}

int CloseFd(int fd) { return ::close(fd); }

Result<std::size_t> ReadSome(int fd, void* buf, std::size_t len,
                             const char* what) {
  ssize_t n;
  do {
    n = ::read(fd, buf, len);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return Status::IOError(std::string(what) + ": " + ErrnoMessage());
  return static_cast<std::size_t>(n);
}

Status ReadFull(int fd, void* buf, std::size_t len, const char* what) {
  char* dst = static_cast<char*>(buf);
  while (len > 0) {
    const ssize_t n = ::read(fd, dst, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string(what) + ": " + ErrnoMessage());
    }
    if (n == 0) {
      return Status::IOError(std::string(what) + ": unexpected end of file");
    }
    dst += n;
    len -= static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Status WriteFull(int fd, const void* buf, std::size_t len, const char* what) {
  const char* src = static_cast<const char*>(buf);
  while (len > 0) {
    const ssize_t n = ::write(fd, src, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string(what) + ": " + ErrnoMessage());
    }
    src += n;
    len -= static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Status FsyncRetry(int fd, const std::string& path) {
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return Status::IOError("fsync of '" + path + "' failed: " +
                           ErrnoMessage());
  }
  return Status::OK();
}

}  // namespace privelet::common
