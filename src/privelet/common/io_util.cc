#include "privelet/common/io_util.h"

#include <cerrno>
#include <cstring>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace privelet::common {

std::string ErrnoMessage() {
#if defined(_WIN32)
  return "unsupported platform";
#else
  char buf[128];
  // GNU strerror_r may return a static string instead of filling buf.
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  return strerror_r(errno, buf, sizeof(buf));
#else
  return strerror_r(errno, buf, sizeof(buf)) == 0 ? buf : "unknown error";
#endif
#endif
}

int OpenRetry(const char* path, int flags) {
#if defined(_WIN32)
  (void)path;
  (void)flags;
  errno = ENOSYS;
  return -1;
#else
  int fd;
  do {
    fd = ::open(path, flags);
  } while (fd < 0 && errno == EINTR);
  return fd;
#endif
}

int CloseFd(int fd) {
#if defined(_WIN32)
  (void)fd;
  return -1;
#else
  return ::close(fd);
#endif
}

Result<std::size_t> ReadSome(int fd, void* buf, std::size_t len,
                             const char* what) {
#if defined(_WIN32)
  (void)fd;
  (void)buf;
  (void)len;
  return Status::IOError(std::string(what) + ": unsupported platform");
#else
  ssize_t n;
  do {
    n = ::read(fd, buf, len);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return Status::IOError(std::string(what) + ": " + ErrnoMessage());
  return static_cast<std::size_t>(n);
#endif
}

Status ReadFull(int fd, void* buf, std::size_t len, const char* what) {
#if defined(_WIN32)
  (void)fd;
  (void)buf;
  (void)len;
  return Status::IOError(std::string(what) + ": unsupported platform");
#else
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
#endif
}

Status WriteFull(int fd, const void* buf, std::size_t len, const char* what) {
#if defined(_WIN32)
  (void)fd;
  (void)buf;
  (void)len;
  return Status::IOError(std::string(what) + ": unsupported platform");
#else
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
#endif
}

Status FsyncRetry(int fd, const std::string& path) {
#if defined(_WIN32)
  (void)fd;
  return Status::IOError("fsync of '" + path + "': unsupported platform");
#else
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return Status::IOError("fsync of '" + path + "' failed: " +
                           ErrnoMessage());
  }
  return Status::OK();
#endif
}

}  // namespace privelet::common
