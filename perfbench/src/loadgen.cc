#include "loadgen.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common.h"
#include "daemon.h"
#include "privelet/serving/protocol.h"

namespace perfbench {
namespace {

struct Conn {
  int fd = -1;
  const ConnectionPlan* plan = nullptr;
  std::uint32_t index = 0;  ///< connection number
  std::size_t next = 0;     ///< next ring position
  std::string out;
  std::size_t out_head = 0;
  std::string in;
  const Request* current = nullptr;
  std::uint32_t current_pos = 0;
  std::uint64_t sent_ns = 0;
  bool measured = false;  ///< sent inside the measured window
  bool dead = false;
};

constexpr std::size_t kMaxOrder = 50'000;

enum class Parse { kIncomplete, kDone };

// Outcome of checking one complete response: "" when it matched.
std::string CheckAnswers(const Request& request, std::span<const double> got,
                         std::span<const double> expected) {
  if (got.size() != request.queries.size()) {
    return "answer count " + std::to_string(got.size()) + " != " +
           std::to_string(request.queries.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!SameBits(got[i], expected[request.queries[i]])) {
      return "answer mismatch at query " + std::to_string(request.queries[i]);
    }
  }
  return "";
}

// Tries to take one complete response off `conn.in`; fills *error ("" on
// success) when one was complete.
Parse TakeResponse(Conn& conn, std::span<const double> expected,
                   std::string* error) {
  const Request& request = *conn.current;
  if (!request.text) {
    auto frame = privelet::serving::PeekFrame(conn.in);
    if (!frame.ok()) {
      *error = "bad frame: " + frame.status().ToString();
      conn.in.clear();
      return Parse::kDone;
    }
    if (*frame == 0) return Parse::kIncomplete;
    const std::string_view payload(conn.in.data() + 4, *frame - 4);
    auto response = privelet::serving::DecodeResponse(payload);
    if (!response.ok()) {
      *error = "undecodable response: " + response.status().ToString();
    } else if (!response->ok) {
      *error = "error response: " + response->error;
    } else if (request.reload) {
      *error = response->text.rfind("reloaded", 0) == 0
                   ? ""
                   : "unexpected RELOAD reply '" + response->text + "'";
    } else {
      *error = CheckAnswers(request, response->answers, expected);
    }
    conn.in.erase(0, *frame);
    return Parse::kDone;
  }
  const std::size_t header_end = conn.in.find('\n');
  if (header_end == std::string::npos) return Parse::kIncomplete;
  if (conn.in.rfind("ok ", 0) != 0) {
    *error = "error response: " + conn.in.substr(0, header_end);
    conn.in.erase(0, header_end + 1);
    return Parse::kDone;
  }
  const std::size_t lines = std::strtoul(conn.in.c_str() + 3, nullptr, 10);
  std::vector<std::size_t> ends;
  ends.reserve(lines);
  std::size_t pos = header_end + 1;
  while (ends.size() < lines) {
    const std::size_t nl = conn.in.find('\n', pos);
    if (nl == std::string::npos) return Parse::kIncomplete;
    ends.push_back(nl);
    pos = nl + 1;
  }
  if (request.reload) {
    *error = conn.in.compare(header_end + 1, 8, "reloaded") == 0
                 ? ""
                 : "unexpected RELOAD reply";
  } else {
    std::vector<double> got;
    got.reserve(lines);
    std::size_t begin = header_end + 1;
    for (const std::size_t end : ends) {
      const std::string line = conn.in.substr(begin, end - begin);
      char* parse_end = nullptr;
      got.push_back(std::strtod(line.c_str(), &parse_end));
      if (parse_end == line.c_str() || *parse_end != '\0') {
        *error = "unparseable answer line '" + line + "'";
        conn.in.erase(0, pos);
        return Parse::kDone;
      }
      begin = end + 1;
    }
    *error = CheckAnswers(request, got, expected);
  }
  conn.in.erase(0, pos);
  return Parse::kDone;
}

bool FlushOut(Conn& conn) {
  while (conn.out_head < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_head,
                             conn.out.size() - conn.out_head, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_head += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  conn.out.clear();
  conn.out_head = 0;
  return true;
}

}  // namespace

LoadResult RunClosedLoop(std::uint16_t port,
                         const std::vector<ConnectionPlan>& plans,
                         std::span<const double> expected,
                         const LoadOptions& options) {
  LoadResult result;
  // Pin the calling thread for the run; its affinity is restored below.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  const bool pinned =
      !options.cpus.empty() && ::sched_getaffinity(0, sizeof saved, &saved) == 0;
  if (pinned) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : options.cpus) CPU_SET(cpu, &set);
    ::sched_setaffinity(0, sizeof set, &set);
  }
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) throw FatalError("epoll_create1 failed");

  std::vector<Conn> conns(plans.size());
  const auto fail = [&](Conn& conn, const std::string& why) {
    PhaseCounts& phase = conn.measured ? result.measured : result.warmup;
    ++phase.failed;
    if (result.failures.size() < 8) result.failures.push_back(why);
  };
  const auto kill_conn = [&](Conn& conn, const std::string& why) {
    if (conn.current != nullptr) fail(conn, why);
    conn.current = nullptr;
    conn.dead = true;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
  };

  const std::uint64_t start = NowNs();
  const std::uint64_t measure_start =
      start + static_cast<std::uint64_t>(options.warmup_seconds * 1e9);
  const std::uint64_t end =
      measure_start + static_cast<std::uint64_t>(options.measure_seconds * 1e9);

  // Set at a window boundary under options.reference: no request is sent
  // until every connection is idle and the reference has run.
  bool pausing = false;
  const auto send_next = [&](Conn& conn) {
    const std::uint64_t now = NowNs();
    if (pausing || now >= end || conn.plan->ring.empty()) return;
    conn.current_pos = static_cast<std::uint32_t>(conn.next);
    conn.current = &conn.plan->ring[conn.next];
    conn.next = (conn.next + 1) % conn.plan->ring.size();
    conn.measured = now >= measure_start;
    PhaseCounts& phase = conn.measured ? result.measured : result.warmup;
    ++phase.sent;
    if (conn.measured && result.order.size() < kMaxOrder) {
      result.order.emplace_back(conn.index, conn.current_pos);
    }
    conn.out.append(conn.current->bytes);
    conn.sent_ns = now;
    if (!FlushOut(conn)) {
      kill_conn(conn, "send failed");
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | (conn.out.empty() ? 0u : EPOLLOUT);
    ev.data.u32 = conn.index;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  };

  for (std::size_t i = 0; i < plans.size(); ++i) {
    Conn& conn = conns[i];
    conn.plan = &plans[i];
    conn.index = static_cast<std::uint32_t>(i);
    conn.next = plans[i].ring.empty() ? 0 : (i * 7919) % plans[i].ring.size();
    conn.fd = ConnectLocal(port);
    if (conn.fd < 0) {
      ++result.refused_connections;
      ++result.warmup.failed;
      conn.dead = true;
      continue;
    }
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = conn.index;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, conn.fd, &ev);
    if (plans[i].binary) {
      conn.out.assign(privelet::serving::kBinaryMagic, 4);
    }
  }
  for (Conn& conn : conns) {
    if (!conn.dead) send_next(conn);
  }

  std::uint64_t last_completion = measure_start;
  // The current window: opened at the first cycle boundary of connection 0
  // inside the measured phase, closed at the next.
  // The p50 is taken per connection and averaged over the connections, so
  // a mix of framings (whose latencies differ) does not put the median on
  // the edge between two clusters.
  std::uint64_t window_start = 0;
  std::uint64_t window_queries = 0;
  double window_reference_ms = 0.0;
  std::vector<std::vector<double>> window_us(conns.size());
  const auto record_window = [&](const Conn& conn, std::uint64_t now) {
    if (conn.index != 0 ||
        conn.current_pos + 1 != conn.plan->ring.size()) {
      return;
    }
    if (window_start != 0) {
      double p50 = 0.0;
      double connections = 0.0;
      for (const std::vector<double>& us : window_us) {
        if (us.empty()) continue;
        p50 += Median(us);
        connections += 1.0;
      }
      result.window_qps.push_back(static_cast<double>(window_queries) /
                                  (static_cast<double>(now - window_start) * 1e-9));
      result.window_p50_us.push_back(p50 / connections);
      if (options.reference != nullptr) {
        result.window_reference_ms.push_back(window_reference_ms);
      }
    }
    pausing = options.reference != nullptr;
    window_start = pausing ? 0 : now;
    window_queries = 0;
    for (std::vector<double>& us : window_us) us.clear();
  };
  const auto any_outstanding = [&] {
    return std::any_of(conns.begin(), conns.end(),
                       [](const Conn& c) { return c.current != nullptr; });
  };
  std::vector<epoll_event> events(conns.size() + 1);
  char buf[1 << 16];
  while (true) {
    if (pausing && !any_outstanding()) {
      window_reference_ms = options.reference->run();
      pausing = false;
      window_start = NowNs();
      for (Conn& conn : conns) {
        if (!conn.dead) send_next(conn);
      }
    }
    if (!any_outstanding()) break;
    if (NowNs() > end + 30'000'000'000ull) {
      for (Conn& conn : conns) {
        if (!conn.dead) kill_conn(conn, "no response within 30 s");
      }
      break;
    }
    const int n = ::epoll_wait(epoll_fd, events.data(),
                               static_cast<int>(events.size()), 100);
    if (n < 0 && errno != EINTR) throw FatalError("epoll_wait failed");
    for (int e = 0; e < n; ++e) {
      Conn& conn = conns[events[e].data.u32];
      if (conn.dead) continue;
      if (events[e].events & EPOLLOUT) {
        if (!FlushOut(conn)) {
          kill_conn(conn, "send failed");
          continue;
        }
        if (conn.out.empty()) {
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.u32 = conn.index;
          ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
        }
      }
      if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      bool closed = false;
      while (true) {
        const ssize_t got = ::recv(conn.fd, buf, sizeof buf, 0);
        if (got > 0) {
          conn.in.append(buf, static_cast<std::size_t>(got));
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        closed = true;
        break;
      }
      while (conn.current != nullptr) {
        std::string error;
        if (TakeResponse(conn, expected, &error) == Parse::kIncomplete) break;
        const std::uint64_t now = NowNs();
        const Request& request = *conn.current;
        PhaseCounts& phase = conn.measured ? result.measured : result.warmup;
        if (!error.empty()) {
          fail(conn, error);
        } else {
          ++phase.succeeded;
          if (conn.measured) {
            const double micros = static_cast<double>(now - conn.sent_ns) * 1e-3;
            if (request.reload) {
              result.reload_ms.push_back(micros * 1e-3);
            } else {
              result.request_us.push_back(micros);
              result.measured_queries += request.queries.size();
              if (window_start != 0) {
                window_us[conn.index].push_back(micros);
                window_queries += request.queries.size();
              }
            }
          }
        }
        if (conn.measured) {
          last_completion = std::max(last_completion, now);
          if (now < end) record_window(conn, now);
        }
        conn.current = nullptr;
        send_next(conn);
      }
      if (closed) kill_conn(conn, "connection closed by the daemon");
    }
  }
  for (Conn& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  ::close(epoll_fd);
  if (pinned) ::sched_setaffinity(0, sizeof saved, &saved);
  result.measured_seconds = static_cast<double>(last_completion - measure_start) * 1e-9;
  return result;
}

}  // namespace perfbench
