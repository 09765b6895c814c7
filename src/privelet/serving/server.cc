#include "privelet/serving/server.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "privelet/common/io_util.h"
#include "privelet/query/compiled_workload.h"
#include "privelet/simd/dispatch.h"

#if defined(__linux__)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace privelet::serving {

namespace {

constexpr std::size_t kMaxLoops = 256;  // sanity bound on num_loops

#if defined(__linux__)

std::uint64_t NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Strict digit parsing: "-1" must never wrap into a huge batch size.
Result<std::uint64_t> ParseCount(std::string_view token) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value, 10);
  if (ec != std::errc{} || ptr != token.data() + token.size() ||
      token.empty()) {
    return Status::InvalidArgument("'" + std::string(token) +
                                   "' is not a count");
  }
  return value;
}

std::string_view NextToken(std::string_view* line) {
  const std::size_t begin = line->find_first_not_of(" \t\r");
  if (begin == std::string_view::npos) {
    *line = {};
    return {};
  }
  std::size_t end = line->find_first_of(" \t\r", begin);
  if (end == std::string_view::npos) end = line->size();
  const std::string_view token = line->substr(begin, end - begin);
  line->remove_prefix(end);
  return token;
}

#endif  // defined(__linux__)

}  // namespace

Server::Server(query::ReleaseStore* store, ServerOptions options)
    : store_(store), options_(std::move(options)) {}

Server::~Server() {
#if defined(__linux__)
  for (const auto& loop : loops_) {
    if (loop == nullptr) continue;
    for (auto& [fd, conn] : loop->connections) common::CloseFd(fd);
    loop->connections.clear();
    for (const int fd : loop->handoff_queue) common::CloseFd(fd);
    loop->handoff_queue.clear();
    if (loop->listen_fd >= 0) common::CloseFd(loop->listen_fd);
    if (loop->epoll_fd >= 0) common::CloseFd(loop->epoll_fd);
    if (loop->wake_read_fd >= 0) common::CloseFd(loop->wake_read_fd);
    if (loop->wake_write_fd >= 0) common::CloseFd(loop->wake_write_fd);
    if (loop->handoff_fd >= 0) common::CloseFd(loop->handoff_fd);
  }
#endif
}

ServerStats Server::stats() const {
  ServerStats total;
  for (const auto& loop : loops_) {
    if (loop == nullptr) continue;
    const LoopCounters& c = loop->counters;
    total.connections_accepted +=
        c.connections_accepted.load(std::memory_order_relaxed);
    total.connections_dropped +=
        c.connections_dropped.load(std::memory_order_relaxed);
    total.requests += c.requests.load(std::memory_order_relaxed);
    total.failures += c.failures.load(std::memory_order_relaxed);
    total.queries += c.queries.load(std::memory_order_relaxed);
    total.reloads += c.reloads.load(std::memory_order_relaxed);
    total.answer_cache_hits +=
        c.answer_cache_hits.load(std::memory_order_relaxed);
  }
  return total;
}

void Server::Shutdown() {
  stop_.store(true, std::memory_order_relaxed);
#if defined(__linux__)
  // One byte into every loop's wake pipe; safe from a signal handler —
  // no allocation, no locks, only fds wired up before Run() began. A
  // full pipe (EAGAIN) means that loop's wakeup is already pending.
  for (const auto& loop : loops_) {
    if (loop == nullptr) continue;
    const int fd = loop->wake_write_fd;
    if (fd >= 0) {
      const char byte = 'q';
      [[maybe_unused]] ssize_t rc = ::write(fd, &byte, 1);
    }
  }
#endif
}

#if !defined(__linux__)

Status Server::Start() {
  return Status::IOError("the serving daemon requires Linux (epoll)");
}
Status Server::Run() {
  return Status::IOError("the serving daemon requires Linux (epoll)");
}

#else  // defined(__linux__)

Status Server::Start() {
  num_loops_ = options_.num_loops != 0
                   ? options_.num_loops
                   : std::max<std::size_t>(
                         1, std::thread::hardware_concurrency());
  num_loops_ = std::min(num_loops_, kMaxLoops);

  switch (options_.accept_mode) {
    case ServerOptions::AcceptMode::kHandoff:
      handoff_ = num_loops_ > 1;
      break;
    case ServerOptions::AcceptMode::kReusePort:
    case ServerOptions::AcceptMode::kAuto: {
      handoff_ = false;
      if (num_loops_ > 1) {
        // Probe SO_REUSEPORT on a scratch socket; every modern Linux has
        // it, but the fallback keeps the daemon multi-loop regardless.
        const int probe =
            ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        const int one = 1;
        const bool supported =
            probe >= 0 && ::setsockopt(probe, SOL_SOCKET, SO_REUSEPORT, &one,
                                       sizeof(one)) == 0;
        if (probe >= 0) common::CloseFd(probe);
        if (!supported) {
          if (options_.accept_mode == ServerOptions::AcceptMode::kReusePort) {
            return Status::IOError("SO_REUSEPORT is not supported here");
          }
          handoff_ = true;
        }
      }
      break;
    }
  }

  loops_.clear();
  loops_.reserve(num_loops_);
  for (std::size_t i = 0; i < num_loops_; ++i) {
    auto loop = std::make_unique<EventLoop>();
    loop->index = i;
    loops_.push_back(std::move(loop));
  }
  for (const auto& loop : loops_) {
    PRIVELET_RETURN_IF_ERROR(SetupLoop(*loop));
  }

  // Listeners. Sharded mode: one SO_REUSEPORT listener per loop, the
  // first bind resolving an ephemeral port for the rest of the group.
  // Handoff mode (and num_loops == 1): a single listener on loop 0, plus
  // an eventfd per other loop for the fd handover.
  const std::size_t listeners = handoff_ ? 1 : num_loops_;
  for (std::size_t i = 0; i < listeners; ++i) {
    PRIVELET_RETURN_IF_ERROR(
        SetupListener(*loops_[i], /*reuse_port=*/!handoff_ && num_loops_ > 1));
    struct epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loops_[i]->listen_fd;
    if (::epoll_ctl(loops_[i]->epoll_fd, EPOLL_CTL_ADD, loops_[i]->listen_fd,
                    &ev) != 0) {
      return Status::IOError("epoll_ctl(listener) failed: " +
                             common::ErrnoMessage());
    }
  }
  if (handoff_) {
    for (std::size_t i = 1; i < num_loops_; ++i) {
      EventLoop& loop = *loops_[i];
      loop.handoff_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
      if (loop.handoff_fd < 0) {
        return Status::IOError("eventfd failed: " + common::ErrnoMessage());
      }
      struct epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = loop.handoff_fd;
      if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, loop.handoff_fd, &ev) !=
          0) {
        return Status::IOError("epoll_ctl(handoff eventfd) failed: " +
                               common::ErrnoMessage());
      }
    }
  }
  uptime_.Restart();
  return Status::OK();
}

Status Server::SetupLoop(EventLoop& loop) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) != 0) {
    return Status::IOError("cannot create wake pipe: " +
                           common::ErrnoMessage());
  }
  loop.wake_read_fd = pipe_fds[0];
  loop.wake_write_fd = pipe_fds[1];

  loop.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (loop.epoll_fd < 0) {
    return Status::IOError("epoll_create1 failed: " + common::ErrnoMessage());
  }
  struct epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = loop.wake_read_fd;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, loop.wake_read_fd, &ev) != 0) {
    return Status::IOError("epoll_ctl(wake pipe) failed: " +
                           common::ErrnoMessage());
  }
  return Status::OK();
}

Status Server::SetupListener(EventLoop& loop, bool reuse_port) {
  loop.listen_fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (loop.listen_fd < 0) {
    return Status::IOError("socket failed: " + common::ErrnoMessage());
  }
  const int one = 1;
  // SO_REUSEADDR so a restarted daemon rebinds through TIME_WAIT remnants
  // of its predecessor instead of flaking with EADDRINUSE.
  (void)::setsockopt(loop.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
  if (reuse_port &&
      ::setsockopt(loop.listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                   sizeof(one)) != 0) {
    return Status::IOError("setsockopt(SO_REUSEPORT) failed: " +
                           common::ErrnoMessage());
  }

  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // Loop 0 binds the configured port (possibly ephemeral); the rest of a
  // REUSEPORT group binds the port loop 0 resolved.
  addr.sin_port = htons(loop.index == 0 ? options_.port : port_);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("'" + options_.host +
                                   "' is not an IPv4 address");
  }
  if (::bind(loop.listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IOError("cannot bind " + options_.host + ":" +
                           std::to_string(options_.port) + ": " +
                           common::ErrnoMessage());
  }
  if (::listen(loop.listen_fd, options_.backlog) != 0) {
    return Status::IOError("listen failed: " + common::ErrnoMessage());
  }
  if (loop.index == 0) {
    struct sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(loop.listen_fd,
                      reinterpret_cast<struct sockaddr*>(&bound), &len) != 0) {
      return Status::IOError("getsockname failed: " + common::ErrnoMessage());
    }
    port_ = ntohs(bound.sin_port);
  }
  return Status::OK();
}

Status Server::Run() {
  if (loops_.empty() || loops_[0]->epoll_fd < 0) {
    return Status::FailedPrecondition("Run() before Start()");
  }
  std::vector<Status> statuses(num_loops_, Status::OK());
  if (num_loops_ == 1) {
    statuses[0] = RunLoop(*loops_[0]);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_loops_ - 1);
    for (std::size_t i = 1; i < num_loops_; ++i) {
      threads.emplace_back([this, i, &statuses] {
        statuses[i] = RunLoop(*loops_[i]);
        // A fatal loop error downs the whole daemon rather than leaving
        // a silent shard hole.
        if (!statuses[i].ok()) Shutdown();
      });
    }
    statuses[0] = RunLoop(*loops_[0]);
    if (!statuses[0].ok()) Shutdown();
    for (std::thread& t : threads) t.join();
  }
  // Drain: one non-blocking flush attempt per connection, then close.
  for (const auto& loop : loops_) {
    for (auto& [fd, conn] : loop->connections) {
      FlushConnection(*conn);
      common::CloseFd(fd);
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
    }
    loop->connections.clear();
    for (const int fd : loop->handoff_queue) {
      common::CloseFd(fd);
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
    }
    loop->handoff_queue.clear();
  }
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status Server::RunLoop(EventLoop& loop) {
  constexpr int kMaxEvents = 64;
  struct epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_relaxed)) {
    const int timeout_ms = loop.ready.empty() ? -1 : 0;
    const int n = ::epoll_wait(loop.epoll_fd, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("epoll_wait failed: " + common::ErrnoMessage());
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop.listen_fd) {
        AcceptPending(loop);
        continue;
      }
      if (fd == loop.wake_read_fd) {
        char drain[64];
        while (::read(loop.wake_read_fd, drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (fd == loop.handoff_fd) {
        std::uint64_t drain = 0;
        [[maybe_unused]] ssize_t rc =
            ::read(loop.handoff_fd, &drain, sizeof(drain));
        AdoptHandoff(loop);
        continue;
      }
      const auto it = loop.connections.find(fd);
      if (it == loop.connections.end()) continue;  // closed earlier
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        CloseConnection(loop, fd);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) FlushConnection(conn);
      if (conn.fd < 0) {
        CloseConnection(loop, fd);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) OnReadable(loop, conn);
      if (conn.fd < 0) {
        CloseConnection(loop, fd);
        continue;
      }
      UpdateInterest(loop, conn);
    }
    // Connections whose pipelined input outlasted their per-cycle budget.
    std::vector<int> still_ready;
    still_ready.swap(loop.ready);
    for (const int fd : still_ready) {
      const auto it = loop.connections.find(fd);
      if (it == loop.connections.end()) continue;
      Connection& conn = *it->second;
      ProcessConnection(loop, conn);
      if (conn.fd < 0) {
        CloseConnection(loop, fd);
        continue;
      }
      UpdateInterest(loop, conn);
    }
  }
  return Status::OK();
}

void Server::AcceptPending(EventLoop& loop) {
  while (true) {
    const int fd = ::accept4(loop.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: drained. Transient per-connection failures
      // (ECONNABORTED, EMFILE pressure) just stop this accept burst.
      return;
    }
    // Global cap across loops: the increment is the reservation, undone
    // when the admission fails.
    if (open_connections_.fetch_add(1, std::memory_order_relaxed) >=
        options_.max_connections) {
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
      common::CloseFd(fd);
      loop.counters.connections_dropped.fetch_add(1,
                                                  std::memory_order_relaxed);
      continue;
    }
    // Pipelined request/response turnarounds are tiny writes; Nagle
    // would batch them behind delayed ACKs, so turn it off at accept.
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    loop.counters.connections_accepted.fetch_add(1,
                                                 std::memory_order_relaxed);
    if (handoff_ && num_loops_ > 1) {
      // Round-robin over all loops, including the acceptor itself.
      EventLoop& target = *loops_[accept_rr_++ % num_loops_];
      if (target.index != loop.index) {
        {
          std::lock_guard<std::mutex> lock(target.handoff_mu);
          target.handoff_queue.push_back(fd);
        }
        const std::uint64_t ping = 1;
        [[maybe_unused]] ssize_t rc =
            ::write(target.handoff_fd, &ping, sizeof(ping));
        continue;
      }
    }
    AdoptConnection(loop, fd);
  }
}

void Server::AdoptConnection(EventLoop& loop, int fd) {
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  struct epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    common::CloseFd(fd);
    open_connections_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  loop.connections.emplace(fd, std::move(conn));
}

void Server::AdoptHandoff(EventLoop& loop) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(loop.handoff_mu);
    fds.swap(loop.handoff_queue);
  }
  for (const int fd : fds) AdoptConnection(loop, fd);
}

void Server::CloseConnection(EventLoop& loop, int fd) {
  const auto it = loop.connections.find(fd);
  if (it == loop.connections.end()) return;
  common::CloseFd(fd);  // also deregisters from epoll
  loop.connections.erase(it);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::OnReadable(EventLoop& loop, Connection& conn) {
  char buf[64 * 1024];
  while (conn.reading) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn.fd = -1;  // hard error; caller closes
      return;
    }
    if (n == 0) {
      // Peer finished sending: answer what is buffered, then close.
      conn.want_close = true;
      break;
    }
    conn.in.append(buf, static_cast<std::size_t>(n));
    if (conn.in.size() - conn.in_head > options_.max_request_bytes) break;
  }
  ProcessConnection(loop, conn);
}

void Server::ProcessConnection(EventLoop& loop, Connection& conn) {
  if (conn.mode == Mode::kUnknown) {
    const std::size_t avail = conn.in.size() - conn.in_head;
    if (avail > 0) {
      const std::size_t check = std::min<std::size_t>(avail, 4);
      if (std::memcmp(conn.in.data() + conn.in_head, kBinaryMagic, check) ==
          0) {
        if (avail < 4) {
          // A prefix of the magic: wait for the rest (or EOF).
          if (!conn.want_close) return;
          conn.mode = Mode::kText;  // EOF mid-magic: treat as text garbage
        } else {
          conn.mode = Mode::kBinary;
          conn.in_head += 4;
        }
      } else {
        conn.mode = Mode::kText;
      }
    }
  }

  bool more = false;
  if (conn.mode != Mode::kUnknown) {
    std::size_t budget = options_.max_pipeline;
    more = conn.mode == Mode::kText ? ProcessText(loop, conn, &budget)
                                    : ProcessBinary(loop, conn, &budget);
  }

  // Compact the consumed prefix of the input buffer.
  if (conn.in_head == conn.in.size()) {
    conn.in.clear();
    conn.in_head = 0;
  } else if (conn.in_head > (std::size_t{64} << 10)) {
    conn.in.erase(0, conn.in_head);
    conn.in_head = 0;
  }

  // Oversized single request (no line/frame boundary within the cap):
  // the stream cannot resynchronize — report and close.
  if (!conn.want_close &&
      conn.in.size() - conn.in_head > options_.max_request_bytes) {
    const Status err = Status::InvalidArgument(
        "request exceeds " + std::to_string(options_.max_request_bytes) +
        " bytes");
    if (conn.mode == Mode::kBinary) {
      EncodeErrorResponse(&conn.out, err);
    } else {
      conn.out += "error: ";
      conn.out += err.ToString();
      conn.out += '\n';
    }
    conn.in.clear();
    conn.in_head = 0;
    conn.want_close = true;
    loop.counters.connections_dropped.fetch_add(1, std::memory_order_relaxed);
  }

  FlushConnection(conn);
  if (conn.fd < 0) return;

  // Slow-client cap: a connection buffering more than the limit is gone.
  if (OutPending(conn) > options_.max_buffered_bytes) {
    conn.fd = -1;
    loop.counters.connections_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Backpressure: pause reads while the output backlog is high.
  conn.reading = OutPending(conn) <= options_.max_buffered_bytes / 2 &&
                 !conn.want_close;
  if (more && !conn.want_close) loop.ready.push_back(conn.fd);
  if (conn.want_close && OutPending(conn) == 0) conn.fd = -1;
}

bool Server::ProcessText(EventLoop& loop, Connection& conn,
                         std::size_t* budget) {
  while (*budget > 0) {
    if (OutPending(conn) > options_.max_buffered_bytes / 2) break;
    const std::size_t nl = conn.in.find('\n', conn.in_head);
    if (nl == std::string::npos) return false;
    std::string line = conn.in.substr(conn.in_head, nl - conn.in_head);
    conn.in_head = nl + 1;
    // CRLF clients (nc -C, telnet, Windows edits) terminate with \r\n.
    if (!line.empty() && line.back() == '\r') line.pop_back();

    if (conn.batch_expected > 0) {
      conn.batch_lines.push_back(std::move(line));
      if (conn.batch_lines.size() == conn.batch_expected) {
        FinishTextBatch(loop, conn);
        --*budget;
      }
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    HandleTextLine(loop, conn, line);
    --*budget;
    if (conn.want_close) break;
  }
  return conn.in.find('\n', conn.in_head) != std::string::npos;
}

bool Server::ProcessBinary(EventLoop& loop, Connection& conn,
                           std::size_t* budget) {
  while (*budget > 0) {
    if (OutPending(conn) > options_.max_buffered_bytes / 2) break;
    const auto frame = PeekFrame(
        std::string_view(conn.in).substr(conn.in_head));
    if (!frame.ok()) {
      EncodeErrorResponse(&conn.out, frame.status());
      conn.in.clear();
      conn.in_head = 0;
      conn.want_close = true;
      loop.counters.failures.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (*frame == 0) return false;
    const std::string_view payload =
        std::string_view(conn.in).substr(conn.in_head + 4, *frame - 4);
    auto request = DecodeRequest(payload);
    conn.in_head += *frame;
    if (!request.ok()) {
      // The frame boundary held, so the stream is still in sync: report
      // and continue.
      EncodeErrorResponse(&conn.out, request.status());
      loop.counters.requests.fetch_add(1, std::memory_order_relaxed);
      loop.counters.failures.fetch_add(1, std::memory_order_relaxed);
    } else {
      HandleBinaryRequest(loop, conn, *request);
    }
    --*budget;
  }
  const auto next = PeekFrame(std::string_view(conn.in).substr(conn.in_head));
  return next.ok() && *next > 0;
}

void Server::HandleTextLine(EventLoop& loop, Connection& conn,
                            std::string_view line) {
  loop.counters.requests.fetch_add(1, std::memory_order_relaxed);
  std::string_view rest = line;
  std::string verb(NextToken(&rest));
  std::transform(verb.begin(), verb.end(), verb.begin(),
                 [](unsigned char c) { return std::toupper(c); });

  const auto fail = [&](const Status& status) {
    AppendTextError(loop, conn, status);
  };

  if (verb == "QUERY") {
    const std::string id(NextToken(&rest));
    const std::size_t preds = rest.find_first_not_of(" \t\r");
    if (id.empty() || preds == std::string_view::npos) {
      fail(Status::InvalidArgument(
          "usage: QUERY <release-id> <predicates> (predicates: '*', "
          "name=lo:hi, name@node)"));
      return;
    }
    const std::string pred_line(rest.substr(preds));
    auto answers = AnswerTextQueries(loop, id, std::span(&pred_line, 1));
    if (!answers.ok()) {
      fail(answers.status());
      return;
    }
    AppendTextHeader(conn, answers->size());
    AppendTextAnswers(conn, *answers);
    return;
  }
  if (verb == "BATCH") {
    const std::string id(NextToken(&rest));
    const std::string_view count_token = NextToken(&rest);
    auto count = ParseCount(count_token);
    if (id.empty() || !count.ok() || !NextToken(&rest).empty()) {
      fail(Status::InvalidArgument("usage: BATCH <release-id> <n>"));
      return;
    }
    if (*count == 0 || *count > kMaxQueriesPerRequest) {
      fail(Status::InvalidArgument(
          "batch size must be in [1, " +
          std::to_string(kMaxQueriesPerRequest) + "]"));
      return;
    }
    conn.batch_id = id;
    conn.batch_expected = static_cast<std::size_t>(*count);
    conn.batch_lines.clear();
    return;  // the response follows the n-th predicate line
  }
  if (verb == "RELOAD") {
    const std::string id(NextToken(&rest));
    const std::string path(NextToken(&rest));
    if (id.empty() || path.empty() || !NextToken(&rest).empty()) {
      fail(Status::InvalidArgument(
          "usage: RELOAD <release-id> <snapshot-path>"));
      return;
    }
    auto message = DoReload(loop, id, path);
    if (!message.ok()) {
      fail(message.status());
      return;
    }
    AppendTextHeader(conn, 1);
    conn.out += *message;
    conn.out += '\n';
    return;
  }
  if (verb == "STATS") {
    const std::string text = RenderStatsText();
    const std::size_t lines = static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
    AppendTextHeader(conn, lines);
    conn.out += text;
    return;
  }
  if (verb == "IDS") {
    const std::string text = RenderIdsText();
    const std::size_t lines = static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
    AppendTextHeader(conn, lines);
    conn.out += text;
    return;
  }
  if (verb == "PING") {
    AppendTextHeader(conn, 1);
    conn.out += "pong\n";
    return;
  }
  if (verb == "QUIT") {
    conn.want_close = true;
    return;
  }
  fail(Status::InvalidArgument(
      "unknown verb '" + verb +
      "' (QUERY|BATCH|RELOAD|STATS|IDS|PING|QUIT)"));
}

void Server::FinishTextBatch(EventLoop& loop, Connection& conn) {
  const std::string id = std::move(conn.batch_id);
  std::vector<std::string> lines = std::move(conn.batch_lines);
  conn.batch_id.clear();
  conn.batch_expected = 0;
  conn.batch_lines.clear();
  // The BATCH header line already counted this request.
  auto answers = AnswerTextQueries(loop, id, lines);
  if (!answers.ok()) {
    AppendTextError(loop, conn, answers.status());
    return;
  }
  AppendTextHeader(conn, answers->size());
  AppendTextAnswers(conn, *answers);
}

void Server::HandleBinaryRequest(EventLoop& loop, Connection& conn,
                                 const BinaryRequest& request) {
  loop.counters.requests.fetch_add(1, std::memory_order_relaxed);
  switch (request.verb) {
    case Verb::kQuery: {
      auto answers = AnswerSpecQueries(loop, request.id, request.queries);
      if (!answers.ok()) {
        EncodeErrorResponse(&conn.out, answers.status());
        loop.counters.failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      EncodeOkAnswers(&conn.out, *answers);
      return;
    }
    case Verb::kReload: {
      auto message = DoReload(loop, request.id, request.path);
      if (!message.ok()) {
        EncodeErrorResponse(&conn.out, message.status());
        loop.counters.failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      EncodeOkText(&conn.out, *message);
      return;
    }
    case Verb::kStats:
      EncodeOkText(&conn.out, RenderStatsText());
      return;
    case Verb::kIds:
      EncodeOkText(&conn.out, RenderIdsText());
      return;
    case Verb::kPing:
      EncodeOkText(&conn.out, "pong");
      return;
  }
  EncodeErrorResponse(&conn.out, Status::Internal("unhandled verb"));
}

std::vector<double> Server::Evaluate(
    const query::PublishingSession& session,
    std::span<const query::RangeQuery> queries) {
  if (options_.compile_batch_threshold > 0 &&
      queries.size() >= options_.compile_batch_threshold) {
    return session.AnswerCompiled(session.Compile(queries));
  }
  return session.AnswerAll(queries);
}

ConcurrentHistogram* Server::LatencySlot(EventLoop& loop,
                                         const std::string& id) {
  const auto cached = loop.latency_slots.find(id);
  if (cached != loop.latency_slots.end()) return cached->second;
  std::unique_ptr<ConcurrentHistogram[]>* slots = nullptr;
  {
    std::lock_guard<std::mutex> lock(release_latency_mu_);
    slots = &release_latency_[id];
    if (*slots == nullptr) {
      *slots = std::make_unique<ConcurrentHistogram[]>(num_loops_);
    }
  }
  ConcurrentHistogram* slot = &(*slots)[loop.index];
  loop.latency_slots.emplace(id, slot);
  return slot;
}

template <typename BuildQueries>
Result<std::vector<double>> Server::AnswerTimed(EventLoop& loop,
                                                const std::string& id,
                                                const BuildQueries& build) {
  // Failures are counted where the error response is rendered
  // (AppendTextError / the binary encode sites), exactly once per
  // request; error returns here just propagate.
  const std::uint64_t start = NowNanos();
  // Generation before Acquire: if a RELOAD lands in between, answers
  // computed from the new session are stamped with the old generation
  // and the cache invalidates one request later — never the reverse
  // (stale answers surviving under a new generation).
  const std::uint64_t generation = store_->generation(id);
  PRIVELET_ASSIGN_OR_RETURN(auto session, store_->Acquire(id));
  PRIVELET_ASSIGN_OR_RETURN(std::vector<query::RangeQuery> queries,
                            build(session->schema()));
  std::vector<double> answers(queries.size());

  AnswerCache* cache = nullptr;
  if (options_.answer_cache_entries > 0) {
    cache = &loop.caches.try_emplace(id, options_.answer_cache_entries)
                 .first->second;
    cache->SetGeneration(generation);
  }

  std::vector<std::string> keys;
  std::vector<std::size_t> misses;
  if (cache != nullptr) {
    keys.resize(queries.size());
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      AppendQueryKey(queries[i], &keys[i]);
      if (cache->Lookup(keys[i], &answers[i])) {
        ++hits;
      } else {
        misses.push_back(i);
      }
    }
    if (hits > 0) {
      loop.counters.answer_cache_hits.fetch_add(hits,
                                                std::memory_order_relaxed);
    }
  }

  if (cache == nullptr) {
    answers = Evaluate(*session, queries);
  } else if (!misses.empty()) {
    std::vector<double> computed;
    if (misses.size() == queries.size()) {
      computed = Evaluate(*session, queries);
    } else {
      std::vector<query::RangeQuery> miss_queries;
      miss_queries.reserve(misses.size());
      for (const std::size_t i : misses) miss_queries.push_back(queries[i]);
      computed = Evaluate(*session, miss_queries);
    }
    for (std::size_t j = 0; j < misses.size(); ++j) {
      const std::size_t i = misses[j];
      answers[i] = computed[misses.size() == queries.size() ? i : j];
      cache->Insert(keys[i], answers[i]);
    }
  }

  const std::uint64_t elapsed = NowNanos() - start;
  loop.all_latency.Record(elapsed);
  LatencySlot(loop, id)->Record(elapsed);
  loop.counters.queries.fetch_add(answers.size(), std::memory_order_relaxed);
  return answers;
}

Result<std::vector<double>> Server::AnswerTextQueries(
    EventLoop& loop, const std::string& id,
    std::span<const std::string> lines) {
  return AnswerTimed(
      loop, id,
      [&](const data::Schema& schema)
          -> Result<std::vector<query::RangeQuery>> {
        std::vector<query::RangeQuery> queries;
        queries.reserve(lines.size());
        for (const std::string& line : lines) {
          PRIVELET_ASSIGN_OR_RETURN(query::RangeQuery query,
                                    ParseQueryLine(schema, line));
          queries.push_back(std::move(query));
        }
        return queries;
      });
}

Result<std::vector<double>> Server::AnswerSpecQueries(
    EventLoop& loop, const std::string& id,
    std::span<const QuerySpec> specs) {
  if (specs.size() > kMaxQueriesPerRequest) {
    return Status::InvalidArgument("batch exceeds the query limit");
  }
  return AnswerTimed(
      loop, id,
      [&](const data::Schema& schema)
          -> Result<std::vector<query::RangeQuery>> {
        std::vector<query::RangeQuery> queries;
        queries.reserve(specs.size());
        for (const QuerySpec& spec : specs) {
          PRIVELET_ASSIGN_OR_RETURN(query::RangeQuery query,
                                    BuildQuery(schema, spec));
          queries.push_back(std::move(query));
        }
        return queries;
      });
}

Result<std::string> Server::DoReload(EventLoop& loop, const std::string& id,
                                     const std::string& path) {
  // Rebind loads the new file before it swaps the binding, so a bad path
  // is the RELOAD's error and the id keeps serving its current release;
  // in-flight borrowers of the old session are untouched either way.
  PRIVELET_RETURN_IF_ERROR(store_->Rebind(id, path));
  loop.counters.reloads.fetch_add(1, std::memory_order_relaxed);
  return "reloaded " + id;
}

std::string Server::RenderStatsText() {
  const ServerStats snapshot = stats();
  const query::ReleaseStore::Stats store_stats = store_->stats();
  std::string out;
  char buf[256];
  const auto line = [&](const char* key, std::uint64_t value) {
    std::snprintf(buf, sizeof(buf), "%s %llu\n", key,
                  static_cast<unsigned long long>(value));
    out += buf;
  };
  std::snprintf(buf, sizeof(buf), "uptime_s %.3f\n",
                uptime_.ElapsedSeconds());
  out += buf;
  line("loops", num_loops_);
  line("connections_open",
       open_connections_.load(std::memory_order_relaxed));
  line("connections_accepted", snapshot.connections_accepted);
  line("connections_dropped", snapshot.connections_dropped);
  line("requests", snapshot.requests);
  line("failures", snapshot.failures);
  line("queries", snapshot.queries);
  line("answer_cache_hits", snapshot.answer_cache_hits);
  line("reloads", snapshot.reloads);
  line("store_loads", store_stats.loads);
  line("store_hits", store_stats.hits);
  line("store_evictions", store_stats.evictions);
  line("store_resident", store_->resident_count());
  // Kernel dispatch attribution: which vector level query evaluation and
  // reloads run at (and what the host could run), so a fleet operator can
  // spot a daemon silently pinned to scalar by a stray PRIVELET_ISA.
  out += "isa_active " + std::string(simd::IsaLevelName(simd::ResolveIsa())) +
         "\n";
  out += "isa_best " +
         std::string(simd::IsaLevelName(simd::DetectBestIsa())) + "\n";
  // Histograms: per-loop lock-free snapshots combined via Merge. The
  // render may run on any loop while others keep recording.
  LatencyHistogram all;
  for (const auto& loop : loops_) loop->all_latency.SnapshotInto(&all);
  out += "latency _all " + all.SummaryMicros() + "\n";
  {
    std::lock_guard<std::mutex> lock(release_latency_mu_);
    for (const auto& [id, slots] : release_latency_) {
      LatencyHistogram merged;
      for (std::size_t i = 0; i < num_loops_; ++i) {
        slots[i].SnapshotInto(&merged);
      }
      out += "latency " + id + " " + merged.SummaryMicros() + "\n";
    }
  }
  // Planner provenance of each resident release that was published under
  // --auto-plan (PVLS v3). PeekResident only: STATS must not force loads
  // or reshape the LRU order.
  for (const std::string& id : store_->ids()) {
    const auto session = store_->PeekResident(id);
    if (session == nullptr || !session->metadata().plan.has_value()) continue;
    const query::PlanRecord& plan = *session->metadata().plan;
    out += "plan " + id + " chosen=" + plan.chosen;
    std::snprintf(buf, sizeof(buf), " predicted_variance=%.17g",
                  plan.predicted_variance);
    out += buf;
    out += " runner_up=";
    out += plan.runner_up.empty() ? "-" : plan.runner_up;
    std::snprintf(buf, sizeof(buf),
                  " runner_up_variance=%.17g workload_queries=%lu\n",
                  plan.runner_up_variance,
                  static_cast<unsigned long>(plan.workload_queries));
    out += buf;
  }
  return out;
}

std::string Server::RenderIdsText() {
  std::string out;
  for (const std::string& id : store_->ids()) {
    out += id;
    out += '\n';
  }
  return out;
}

void Server::AppendTextHeader(Connection& conn, std::size_t payload_lines) {
  conn.out += "ok ";
  conn.out += std::to_string(payload_lines);
  conn.out += '\n';
}

void Server::AppendTextAnswers(Connection& conn,
                               std::span<const double> answers) {
  // Text answers are byte-identical to `privelet_cli query` output for
  // the same release.
  for (const double a : answers) AppendAnswerLine(&conn.out, a);
}

void Server::AppendTextError(EventLoop& loop, Connection& conn,
                             const Status& status) {
  conn.out += "error: ";
  conn.out += status.ToString();
  conn.out += '\n';
  loop.counters.failures.fetch_add(1, std::memory_order_relaxed);
}

void Server::FlushConnection(Connection& conn) {
  if (conn.fd < 0) return;
  while (OutPending(conn) > 0) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_head, OutPending(conn),
               MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // EPIPE/ECONNRESET: the peer is gone — an ordinary connection end,
      // not a server failure.
      conn.fd = -1;
      return;
    }
    conn.out_head += static_cast<std::size_t>(n);
  }
  if (OutPending(conn) == 0) {
    conn.out.clear();
    conn.out_head = 0;
    if (conn.want_close) conn.fd = -1;
  }
  conn.writing = OutPending(conn) > 0;
}

void Server::UpdateInterest(EventLoop& loop, Connection& conn) {
  if (conn.fd < 0) return;
  struct epoll_event ev{};
  ev.data.fd = conn.fd;
  ev.events = 0;
  if (conn.reading) ev.events |= EPOLLIN;
  if (conn.writing || OutPending(conn) > 0) ev.events |= EPOLLOUT;
  (void)::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

#endif  // defined(__linux__)

}  // namespace privelet::serving
