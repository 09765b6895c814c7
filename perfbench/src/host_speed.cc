#include "host_speed.h"

#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"

namespace perfbench {
namespace {

constexpr int kMixRounds = 4'000'000;
constexpr std::size_t kBufferElements = std::size_t{1} << 21;  // 16 MiB of doubles
constexpr int kTextLines = 40'000;
constexpr int kWakeupRounds = 1000;

/// kTextLines lines of four comma-separated numbers below 1000.
const std::string& ReferenceText() {
  static const std::string text = [] {
    std::string out;
    std::uint64_t x = 7;
    for (int line = 0; line < kTextLines; ++line) {
      for (int c = 0; c < 4; ++c) {
        x = x * 6364136223846793005ULL + 1;
        out += std::to_string((x >> 33) % 1000);
        out += c == 3 ? '\n' : ',';
      }
    }
    return out;
  }();
  return text;
}

volatile std::uint64_t g_sink = 0;

void PinTo(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

bool Send(int fd) {
  const char byte = 'x';
  while (true) {
    const ssize_t n = ::write(fd, &byte, 1);
    if (n == 1) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

bool Receive(int fd) {
  char byte = 0;
  while (true) {
    const ssize_t n = ::read(fd, &byte, 1);
    if (n == 1) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

}  // namespace

double RunReferenceMs() {
  const std::string& text = ReferenceText();
  const std::uint64_t start = NowNs();
  std::uint64_t acc = 0;

  // Integer mixing (splitmix64): core speed.
  std::uint64_t x = 12345;
  for (int i = 0; i < kMixRounds; ++i) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    acc += z ^ (z >> 31);
  }

  // Fresh buffers: page faults, a streaming fill and a strided gather.
  {
    std::vector<double> a(kBufferElements);
    std::vector<double> b(kBufferElements);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i);
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = a[(i * 64 + i / (std::size_t{1} << 17)) & (a.size() - 1)];
    }
    acc += static_cast<std::uint64_t>(b[kBufferElements / 3]);
  }

  // Text parsing through short-lived strings and streams: the allocator
  // and branchy code.
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::stringstream fields(line);
    std::string field;
    while (std::getline(fields, field, ',')) {
      acc += std::strtoul(field.c_str(), nullptr, 10);
    }
  }

  g_sink = acc;
  return SecondsSince(start) * 1e3;
}

double RunWakeupReferenceMs(int cpu, int partner_cpu) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    throw FatalError("socketpair failed");
  }
  cpu_set_t saved;
  CPU_ZERO(&saved);
  const bool restore = cpu >= 0 && ::sched_getaffinity(0, sizeof saved, &saved) == 0;
  PinTo(cpu);
  // The partner echoes every byte until its socket is closed.
  std::thread partner([fd = fds[1], partner_cpu] {
    PinTo(partner_cpu);
    while (Receive(fd) && Send(fd)) {
    }
  });
  bool ok = Send(fds[0]) && Receive(fds[0]);  // partner running, untimed
  const std::uint64_t start = NowNs();
  for (int i = 0; ok && i < kWakeupRounds; ++i) {
    ok = Send(fds[0]) && Receive(fds[0]);
  }
  const double ms = SecondsSince(start) * 1e3;
  ::shutdown(fds[0], SHUT_RDWR);
  partner.join();
  ::close(fds[0]);
  ::close(fds[1]);
  if (restore) ::sched_setaffinity(0, sizeof saved, &saved);
  if (!ok) throw FatalError("wake-up reference: socket pair failed");
  return ms;
}

HostReference ComputeReference() {
  return {"compute", 60.0, [] { return RunReferenceMs(); }};
}

HostReference WakeupReference(int cpu, int partner_cpu) {
  return {"wake-up", 13.5,
          [cpu, partner_cpu] { return RunWakeupReferenceMs(cpu, partner_cpu); }};
}

}  // namespace perfbench
