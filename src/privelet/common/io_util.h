// EINTR- and short-I/O-safe wrappers over the raw POSIX file descriptor
// calls. The serving daemon (src/privelet/serving/) installs signal
// handlers, so any blocking syscall anywhere in the process can return
// EINTR mid-operation — and a partially applied read or write in the
// snapshot path would corrupt a release. Every raw fd operation in the
// library goes through these helpers so a delivered signal can interrupt
// *when* I/O happens but never *whether* it completes.
//
// All functions are no-ops returning IOError on _WIN32 (the library's
// fd-based paths are already gated off there).
#ifndef PRIVELET_COMMON_IO_UTIL_H_
#define PRIVELET_COMMON_IO_UTIL_H_

#include <cstddef>
#include <string>

#include "privelet/common/result.h"
#include "privelet/common/status.h"

namespace privelet::common {

/// strerror_r(errno) as a std::string (thread-safe, glibc- and
/// POSIX-variant tolerant).
std::string ErrnoMessage();

/// open(2) retried on EINTR. Returns the fd, or -1 with errno set.
int OpenRetry(const char* path, int flags);

/// close(2) ignoring EINTR (POSIX leaves the fd state unspecified after
/// EINTR; retrying close risks double-closing a recycled descriptor, so
/// the fd is always considered released). Returns 0 or -1 as close does.
int CloseFd(int fd);

/// One read(2) of at most `len` bytes, retried on EINTR. Returns the
/// byte count, 0 only at end of file; hard errors are an IOError naming
/// `what`.
Result<std::size_t> ReadSome(int fd, void* buf, std::size_t len,
                             const char* what);

/// Reads exactly `len` bytes, retrying EINTR and short reads. An EOF
/// before `len` bytes is an IOError naming `what`.
Status ReadFull(int fd, void* buf, std::size_t len, const char* what);

/// Writes exactly `len` bytes, retrying EINTR and short writes. EPIPE and
/// other hard errors surface as IOError naming `what`.
Status WriteFull(int fd, const void* buf, std::size_t len, const char* what);

/// fsync(2) retried on EINTR.
Status FsyncRetry(int fd, const std::string& path);

}  // namespace privelet::common

#endif  // PRIVELET_COMMON_IO_UTIL_H_
