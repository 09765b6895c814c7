// End-to-end tests for the serving daemon (serving::Server) over real
// loopback sockets: text and binary protocols answer bit-identically to a
// directly loaded session, errors leave the connection usable, RELOAD
// hot-swaps a release under live traffic without failing one in-flight
// request, oversized requests are rejected, and Shutdown() from another
// thread drains cleanly. Runs with the concurrency label: TSan watches
// the event loop, the store, and client threads together.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#endif

#include "privelet/common/thread_pool.h"
#include "privelet/data/attribute.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/release_store.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/serving/latency_histogram.h"
#include "privelet/serving/protocol.h"
#include "privelet/serving/server.h"
#include "privelet/storage/session_io.h"

namespace privelet::serving {
namespace {

#if !defined(__linux__)

TEST(DaemonTest, RequiresLinux) {
  GTEST_SKIP() << "the epoll server only builds on Linux";
}

#else  // defined(__linux__)

data::Schema TestSchema() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 64));
  attrs.push_back(data::Attribute::Ordinal("B", 32));
  return data::Schema(std::move(attrs));
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<std::string> SaveReleases(const data::Schema& schema,
                                      std::span<const std::uint64_t> seeds,
                                      const std::string& stem) {
  matrix::FrequencyMatrix m(schema.DomainSizes());
  rng::Xoshiro256pp gen(3);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 25));
  }
  mechanism::PriveletMechanism mech;
  std::vector<std::string> paths;
  for (const std::uint64_t seed : seeds) {
    auto session = query::PublishingSession::Publish(schema, mech, m,
                                                     /*epsilon=*/0.9, seed);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    const std::string path =
        TempPath(stem + "_" + std::to_string(seed) + ".pvls");
    EXPECT_TRUE(storage::SaveSession(path, *session).ok());
    paths.push_back(path);
  }
  return paths;
}

/// The daemon's answer rendering (AppendTextAnswers uses %.17g); direct
/// sessions are formatted the same way so comparisons are string-exact.
std::string FormatAnswer(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Blocking loopback client with a line/frame reader. A receive timeout
/// turns a hung server into a test failure instead of a stuck run.
class TestClient {
 public:
  ~TestClient() { Close(); }

  bool Connect(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    const timeval timeout{/*tv_sec=*/30, /*tv_usec=*/0};
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                       sizeof(timeout));
    // Like the real CLI client: without it, request/response turnarounds
    // serialize behind Nagle + delayed-ACK (~40ms each) and the latency
    // assertions below would measure the kernel, not the daemon.
    const int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    while (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) != 0) {
      if (errno == EINTR) continue;
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Send(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  /// Reads one '\n'-terminated line (CR stripped); false on EOF/error.
  bool ReadLine(std::string* line) {
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return true;
      }
      if (!FillBuffer()) return false;
    }
  }

  /// Reads one `ok <n>` or `error: ...` response: header + n payload lines.
  bool ReadResponse(std::string* header, std::vector<std::string>* lines) {
    lines->clear();
    if (!ReadLine(header)) return false;
    if (header->rfind("ok ", 0) != 0) return true;  // error: no payload
    const std::size_t n = std::stoul(header->substr(3));
    for (std::size_t i = 0; i < n; ++i) {
      std::string line;
      if (!ReadLine(&line)) return false;
      lines->push_back(std::move(line));
    }
    return true;
  }

  /// Reads one complete binary frame and returns its payload.
  bool ReadFrame(std::string* payload) {
    while (true) {
      auto total = PeekFrame(buffer_);
      if (!total.ok()) return false;
      if (*total > 0) {
        *payload = buffer_.substr(4, *total - 4);
        buffer_.erase(0, *total);
        return true;
      }
      if (!FillBuffer()) return false;
    }
  }

  /// True when the server closed the connection (EOF with no stray bytes).
  bool AtEof() {
    return !FillBuffer() && buffer_.empty();
  }

 private:
  bool FillBuffer() {
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = TestSchema();
    const std::uint64_t seeds[] = {91, 92};
    paths_ = SaveReleases(schema_, seeds, "daemon");
    query::ReleaseStore::Options store_options;
    store_options.pool = &pool_;
    store_ = std::make_unique<query::ReleaseStore>(store_options);
    ASSERT_TRUE(store_->Register("r0", paths_[0]).ok());
    ASSERT_TRUE(store_->Register("r1", paths_[1]).ok());
  }

  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<Server>(store_.get(), options);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
    server_thread_ = std::thread([this] { run_status_ = server_->Run(); });
  }

  void StopServer() {
    if (server_thread_.joinable()) {
      server_->Shutdown();
      server_thread_.join();
      EXPECT_TRUE(run_status_.ok()) << run_status_.ToString();
    }
  }

  void TearDown() override { StopServer(); }

  /// Direct (in-process) answers for text predicate lines against `path`,
  /// formatted exactly as the daemon renders them.
  std::vector<std::string> DirectAnswers(
      const std::string& path, std::span<const std::string> lines) {
    auto session = storage::LoadSession(path);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    std::vector<query::RangeQuery> queries;
    for (const std::string& line : lines) {
      auto query = ParseQueryLine(schema_, line);
      EXPECT_TRUE(query.ok()) << query.status().ToString();
      queries.push_back(*std::move(query));
    }
    std::vector<std::string> out;
    for (const double a : session->AnswerAll(queries)) {
      out.push_back(FormatAnswer(a));
    }
    return out;
  }

  data::Schema schema_;
  std::vector<std::string> paths_;
  common::ThreadPool pool_{2};
  std::unique_ptr<query::ReleaseStore> store_;
  std::unique_ptr<Server> server_;
  std::thread server_thread_;
  Status run_status_;
};

TEST_F(DaemonTest, TextProtocolMatchesDirectAnswers) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  const std::vector<std::string> predicate_lines = {"*", "A=0:31",
                                                    "A=3:9 B=1:30"};
  std::string header;
  std::vector<std::string> payload;

  // Single QUERYs, one per release: answers are string-identical to the
  // directly loaded sessions and the releases are not cross-wired.
  for (const char* id : {"r0", "r1"}) {
    const std::string path = std::string(id) == "r0" ? paths_[0] : paths_[1];
    for (const std::string& line : predicate_lines) {
      ASSERT_TRUE(client.Send("QUERY " + std::string(id) + " " + line + "\n"));
      ASSERT_TRUE(client.ReadResponse(&header, &payload));
      EXPECT_EQ(header, "ok 1");
      const auto expected =
          DirectAnswers(path, std::span(&line, 1));
      ASSERT_EQ(payload.size(), 1u);
      EXPECT_EQ(payload[0], expected[0]) << id << " " << line;
    }
  }

  // BATCH answers all lines in order in one response.
  std::string batch = "BATCH r0 " + std::to_string(predicate_lines.size());
  batch += "\r\n";  // CRLF clients must work
  for (const std::string& line : predicate_lines) batch += line + "\r\n";
  ASSERT_TRUE(client.Send(batch));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  EXPECT_EQ(header, "ok " + std::to_string(predicate_lines.size()));
  EXPECT_EQ(payload, DirectAnswers(paths_[0], predicate_lines));
}

TEST_F(DaemonTest, BinaryProtocolIsBitIdentical) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  ASSERT_TRUE(client.Send(std::string_view(kBinaryMagic, 4)));

  QuerySpec all;  // no predicates
  QuerySpec range;
  range.predicates.push_back({/*kind=*/0, /*attr=*/0, /*lo=*/2, /*hi=*/40});
  const std::vector<QuerySpec> specs = {all, range};

  std::string wire;
  EncodeQueryRequest(&wire, "r1", specs);
  EncodeVerbRequest(&wire, Verb::kPing);
  ASSERT_TRUE(client.Send(wire));  // two pipelined frames

  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&payload));
  auto response = DecodeResponse(payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok) << response->error;

  auto session = storage::LoadSession(paths_[1]);
  ASSERT_TRUE(session.ok());
  std::vector<query::RangeQuery> queries;
  for (const QuerySpec& spec : specs) {
    auto query = BuildQuery(schema_, spec);
    ASSERT_TRUE(query.ok());
    queries.push_back(*std::move(query));
  }
  EXPECT_EQ(response->answers, session->AnswerAll(queries));  // bit-exact

  ASSERT_TRUE(client.ReadFrame(&payload));
  response = DecodeResponse(payload);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->ok);
  EXPECT_EQ(response->text, "pong");
}

TEST_F(DaemonTest, ControlVerbsAndErrorsKeepTheConnectionAlive) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  std::string header;
  std::vector<std::string> payload;

  ASSERT_TRUE(client.Send("PING\n"));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  EXPECT_EQ(header, "ok 1");
  ASSERT_EQ(payload.size(), 1u);
  EXPECT_EQ(payload[0], "pong");

  ASSERT_TRUE(client.Send("IDS\n"));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  EXPECT_EQ(header, "ok 2");
  EXPECT_EQ(payload, (std::vector<std::string>{"r0", "r1"}));

  // Request-level failures are error responses, not disconnects.
  ASSERT_TRUE(client.Send("QUERY nope *\n"));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  EXPECT_EQ(header.rfind("error:", 0), 0u) << header;
  EXPECT_NE(header.find("nope"), std::string::npos);

  ASSERT_TRUE(client.Send("QUERY r0 A=bogus\n"));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  EXPECT_EQ(header.rfind("error:", 0), 0u) << header;

  ASSERT_TRUE(client.Send("FROBNICATE\n"));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  EXPECT_EQ(header.rfind("error:", 0), 0u) << header;

  // STATS reflects the traffic above and stays parseable.
  ASSERT_TRUE(client.Send("STATS\n"));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  ASSERT_EQ(header.rfind("ok ", 0), 0u) << header;
  std::string joined;
  for (const std::string& line : payload) joined += line + "\n";
  EXPECT_NE(joined.find("uptime_s"), std::string::npos);
  EXPECT_NE(joined.find("requests"), std::string::npos);
  EXPECT_NE(joined.find("latency _all"), std::string::npos);

  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_GE(stats.requests, 6u);
  EXPECT_EQ(stats.failures, 3u);

  // QUIT drains and closes from the server side.
  ASSERT_TRUE(client.Send("QUIT\n"));
  EXPECT_TRUE(client.AtEof());
}

TEST_F(DaemonTest, TextBatchCountsAsOneRequest) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  std::string header;
  std::vector<std::string> payload;

  // A text batch is one request, like a binary one: the header line and
  // its predicate lines do not count separately.
  ASSERT_TRUE(client.Send("BATCH r0 2\n*\n*\n"));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  EXPECT_EQ(header, "ok 2");
  ASSERT_TRUE(client.Send("STATS\n"));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  EXPECT_NE(std::find(payload.begin(), payload.end(), "requests 2"),
            payload.end())
      << "STATS lacks the line 'requests 2'";
  EXPECT_EQ(server_->stats().requests, 2u);
  EXPECT_EQ(server_->stats().failures, 0u);

  // A header rejected by validation counts once, with its failure.
  ASSERT_TRUE(client.Send("BATCH r0 0\n"));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  EXPECT_EQ(header.rfind("error:", 0), 0u) << header;
  EXPECT_EQ(server_->stats().requests, 3u);
  EXPECT_EQ(server_->stats().failures, 1u);
}

TEST_F(DaemonTest, ReloadHotSwapsUnderLiveTraffic) {
  StartServer();
  const std::string star = "*";
  const std::vector<std::string> expected0 =
      DirectAnswers(paths_[0], std::span(&star, 1));
  const std::vector<std::string> expected1 =
      DirectAnswers(paths_[1], std::span(&star, 1));
  ASSERT_NE(expected0[0], expected1[0]);  // distinct seeds, distinct noise

  // Register the swapped id up front so no client can race ahead of it
  // and see a not-found error: the hot-swap guarantee under test is
  // "zero failed in-flight requests", not "reload wins the registration
  // race".
  TestClient admin;
  ASSERT_TRUE(admin.Connect(server_->port()));
  std::string header;
  std::vector<std::string> payload;
  ASSERT_TRUE(admin.Send("RELOAD swap " + paths_[0] + "\n"));
  ASSERT_TRUE(admin.ReadResponse(&header, &payload));
  ASSERT_EQ(header, "ok 1") << header;

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequestsPerClient = 60;
  std::atomic<std::size_t> transport_errors{0};
  std::atomic<std::size_t> failed_requests{0};
  std::atomic<std::size_t> wrong_answers{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      TestClient client;
      if (!client.Connect(server_->port())) {
        transport_errors.fetch_add(1);
        return;
      }
      std::string header;
      std::vector<std::string> payload;
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        if (!client.Send("QUERY swap *\n") ||
            !client.ReadResponse(&header, &payload)) {
          transport_errors.fetch_add(1);
          return;
        }
        if (header != "ok 1" || payload.size() != 1) {
          failed_requests.fetch_add(1);
          continue;
        }
        if (payload[0] != expected0[0] && payload[0] != expected1[0]) {
          wrong_answers.fetch_add(1);
        }
      }
    });
  }

  // Flip the release back and forth while the clients hammer it.
  for (std::size_t flip = 0; flip < 20; ++flip) {
    ASSERT_TRUE(
        admin.Send("RELOAD swap " + paths_[1 - flip % 2] + "\n"));
    ASSERT_TRUE(admin.ReadResponse(&header, &payload));
    EXPECT_EQ(header, "ok 1");
    ASSERT_EQ(payload.size(), 1u);
    EXPECT_EQ(payload[0], "reloaded swap");
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(transport_errors.load(), 0u);
  EXPECT_EQ(wrong_answers.load(), 0u);
  // The id is registered before any client sends; every in-flight request
  // during the 20 hot swaps must still succeed.
  EXPECT_EQ(failed_requests.load(), 0u);
  EXPECT_GE(server_->stats().reloads, 21u);
}

TEST_F(DaemonTest, ConcurrentMixedModeClientsGetExactAnswers) {
  StartServer();
  const std::vector<std::string> lines = {"*", "A=0:31", "B=0:15"};
  const std::vector<std::string> expected[2] = {
      DirectAnswers(paths_[0], lines), DirectAnswers(paths_[1], lines)};

  constexpr std::size_t kClients = 6;  // half text, half binary
  constexpr std::size_t kRounds = 30;
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> transport_errors{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const std::string id = "r" + std::to_string(c % 2);
      TestClient client;
      if (!client.Connect(server_->port())) {
        transport_errors.fetch_add(1);
        return;
      }
      if (c % 2 == 1) {  // binary mode
        if (!client.Send(std::string_view(kBinaryMagic, 4))) {
          transport_errors.fetch_add(1);
          return;
        }
        QuerySpec range;
        range.predicates.push_back({0, 0, 0, 31});
        std::string wire;
        EncodeQueryRequest(&wire, id, std::span(&range, 1));
        auto session = storage::LoadSession(paths_[c % 2]);
        if (!session.ok()) {
          transport_errors.fetch_add(1);
          return;
        }
        auto built = BuildQuery(schema_, range);
        if (!built.ok()) {
          transport_errors.fetch_add(1);
          return;
        }
        const std::vector<double> direct =
            session->AnswerAll(std::vector<query::RangeQuery>{*built});
        for (std::size_t i = 0; i < kRounds; ++i) {
          std::string payload;
          if (!client.Send(wire) || !client.ReadFrame(&payload)) {
            transport_errors.fetch_add(1);
            return;
          }
          auto response = DecodeResponse(payload);
          if (!response.ok() || !response->ok ||
              response->answers != direct) {
            mismatches.fetch_add(1);
          }
        }
      } else {  // text mode, pipelined batch per round
        std::string request = "BATCH " + id + " 3\n";
        for (const std::string& line : lines) request += line + "\n";
        std::string header;
        std::vector<std::string> payload;
        for (std::size_t i = 0; i < kRounds; ++i) {
          if (!client.Send(request) ||
              !client.ReadResponse(&header, &payload)) {
            transport_errors.fetch_add(1);
            return;
          }
          if (header != "ok 3" || payload != expected[c % 2]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(transport_errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(server_->stats().failures, 0u);
}

TEST_F(DaemonTest, OversizedRequestLineDropsTheConnection) {
  ServerOptions options;
  options.max_request_bytes = 1024;
  StartServer(options);
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  // 4 KiB with no newline: there is no request boundary within the 1 KiB
  // input cap, so the stream cannot resynchronize — the server answers
  // with one error and closes.
  std::string giant = "QUERY r0 ";
  giant.append(4096, 'x');
  ASSERT_TRUE(client.Send(giant));
  std::string header;
  std::vector<std::string> payload;
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  EXPECT_EQ(header.rfind("error:", 0), 0u) << header;
  EXPECT_TRUE(client.AtEof());

  // A fresh, polite connection still works afterwards.
  TestClient after;
  ASSERT_TRUE(after.Connect(server_->port()));
  ASSERT_TRUE(after.Send("PING\n"));
  ASSERT_TRUE(after.ReadResponse(&header, &payload));
  EXPECT_EQ(header, "ok 1");
  EXPECT_EQ(server_->stats().connections_dropped, 1u);
}

TEST_F(DaemonTest, TextBatchCountsAgainstTheRequestCap) {
  // A text BATCH is one request: its predicate lines' bytes (newlines
  // included) count against max_request_bytes even though no single line
  // comes near the cap. Past it the batch is refused and its connection
  // closed, like any oversized request; other connections carry on.
  ServerOptions options;
  options.max_request_bytes = 256;
  StartServer(options);
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  TestClient other;
  ASSERT_TRUE(other.Connect(server_->port()));
  std::string header;
  std::vector<std::string> payload;

  // 3 lines, 25 bytes: under the cap, answered.
  const std::vector<std::string> lines = {"*", "A=0:31", "A=3:9 B=1:30"};
  std::string batch = "BATCH r0 3\n";
  for (const std::string& line : lines) batch += line + "\n";
  ASSERT_TRUE(client.Send(batch));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  EXPECT_EQ(header, "ok 3");
  EXPECT_EQ(payload, DirectAnswers(paths_[0], lines));

  // 64 lines of 13 bytes (832 in all): refused.
  std::string big = "BATCH r0 64\n";
  for (int i = 0; i < 64; ++i) big += "A=3:9 B=1:30\n";
  ASSERT_TRUE(client.Send(big));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  ASSERT_EQ(header.rfind("error:", 0), 0u) << header;
  EXPECT_NE(header.find("request exceeds 256 bytes"), std::string::npos)
      << header;
  EXPECT_TRUE(client.AtEof());
  EXPECT_EQ(server_->stats().connections_dropped, 1u);

  ASSERT_TRUE(other.Send("QUERY r0 *\n"));
  ASSERT_TRUE(other.ReadResponse(&header, &payload));
  EXPECT_EQ(header, "ok 1");
  EXPECT_EQ(payload, DirectAnswers(paths_[0], std::span(&lines[0], 1)));
}

TEST_F(DaemonTest, ResponsesAreByteIdenticalAcrossLoopCounts) {
  // The sharding contract: num_loops is a pure throughput knob. The same
  // request stream must produce byte-identical responses at 1, 2, and 8
  // loops, in both framings, with the answer cache on and the compiled
  // path forced (threshold 1). Answers also pin to the directly loaded
  // session, so "identical" can't mean "identically wrong".
  const std::vector<std::string> lines = {"*", "A=0:31", "A=3:9 B=1:30",
                                          "A=0:63 B=0:31"};
  const std::vector<std::string> expected = DirectAnswers(paths_[0], lines);

  QuerySpec range;
  range.predicates.push_back({/*kind=*/0, /*attr=*/0, /*lo=*/2, /*hi=*/40});
  std::string binary_request;
  EncodeQueryRequest(&binary_request, "r0", std::span(&range, 1));

  std::string first_binary_payload;
  for (const std::size_t loops : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
    ServerOptions options;
    options.num_loops = loops;
    options.compile_batch_threshold = 1;
    StartServer(options);
    EXPECT_EQ(server_->num_loops(), loops);

    // Text: every predicate twice (the second answer comes from the
    // answer cache and must not differ), then once more as a batch.
    TestClient text;
    ASSERT_TRUE(text.Connect(server_->port()));
    std::string header;
    std::vector<std::string> payload;
    for (int round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        ASSERT_TRUE(text.Send("QUERY r0 " + lines[i] + "\n"));
        ASSERT_TRUE(text.ReadResponse(&header, &payload));
        ASSERT_EQ(header, "ok 1") << header;
        EXPECT_EQ(payload[0], expected[i])
            << "loops=" << loops << " round=" << round << " " << lines[i];
      }
    }
    std::string batch = "BATCH r0 " + std::to_string(lines.size()) + "\n";
    for (const std::string& line : lines) batch += line + "\n";
    ASSERT_TRUE(text.Send(batch));
    ASSERT_TRUE(text.ReadResponse(&header, &payload));
    EXPECT_EQ(payload, expected) << "loops=" << loops;

    // Binary: the raw response frame must match the 1-loop run's bytes.
    TestClient binary;
    ASSERT_TRUE(binary.Connect(server_->port()));
    ASSERT_TRUE(binary.Send(std::string_view(kBinaryMagic, 4)));
    ASSERT_TRUE(binary.Send(binary_request));
    std::string frame;
    ASSERT_TRUE(binary.ReadFrame(&frame));
    if (first_binary_payload.empty()) {
      first_binary_payload = frame;
      auto response = DecodeResponse(frame);
      ASSERT_TRUE(response.ok() && response->ok);
    } else {
      EXPECT_EQ(frame, first_binary_payload) << "loops=" << loops;
    }

    if (loops > 1) {
      EXPECT_GT(server_->stats().answer_cache_hits, 0u);
    }
    StopServer();
  }
}

TEST_F(DaemonTest, ReloadInvalidatesTheAnswerCache) {
  // A cached answer must die with the release that produced it: QUERY,
  // RELOAD to a different snapshot, QUERY again on the same connection
  // (same loop, same cache) must return the new release's answer.
  StartServer();
  const std::string star = "*";
  const std::vector<std::string> expected0 =
      DirectAnswers(paths_[0], std::span(&star, 1));
  const std::vector<std::string> expected1 =
      DirectAnswers(paths_[1], std::span(&star, 1));
  ASSERT_NE(expected0[0], expected1[0]);

  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  std::string header;
  std::vector<std::string> payload;
  ASSERT_TRUE(client.Send("RELOAD swap " + paths_[0] + "\n"));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  ASSERT_EQ(header, "ok 1");

  for (int round = 0; round < 2; ++round) {  // second hit is cached
    ASSERT_TRUE(client.Send("QUERY swap *\n"));
    ASSERT_TRUE(client.ReadResponse(&header, &payload));
    ASSERT_EQ(header, "ok 1");
    EXPECT_EQ(payload[0], expected0[0]) << "round " << round;
  }
  ASSERT_TRUE(client.Send("RELOAD swap " + paths_[1] + "\n"));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  ASSERT_EQ(header, "ok 1");
  ASSERT_TRUE(client.Send("QUERY swap *\n"));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  ASSERT_EQ(header, "ok 1");
  EXPECT_EQ(payload[0], expected1[0]) << "stale cached answer after RELOAD";
}

TEST_F(DaemonTest, FailedReloadKeepsServingTheCurrentRelease) {
  // A RELOAD to a path that does not load is that request's error; the
  // id keeps answering from the release it had, with the same bytes.
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  std::string header;
  std::vector<std::string> before;
  std::vector<std::string> payload;
  ASSERT_TRUE(client.Send("QUERY r0 *\n"));
  ASSERT_TRUE(client.ReadResponse(&header, &before));
  ASSERT_EQ(header, "ok 1");

  const std::string missing = testing::TempDir() + "/missing.pvls";
  ASSERT_TRUE(client.Send("RELOAD r0 " + missing + "\n"));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  EXPECT_EQ(header.rfind("error:", 0), 0u) << header;

  ASSERT_TRUE(client.Send("QUERY r0 *\n"));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  EXPECT_EQ(header, "ok 1");
  EXPECT_EQ(payload, before);
  EXPECT_EQ(server_->stats().reloads, 0u);
}

TEST_F(DaemonTest, SequentialQueryLatencyStaysInteractive) {
  // 200 sequential request/response turnarounds on one connection. With
  // TCP_NODELAY on both ends each is well under a millisecond on
  // loopback; a Nagle/delayed-ACK regression turns them into ~40ms
  // stalls, which no amount of CI noise hides behind this bound.
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  std::string header;
  std::vector<std::string> payload;

  LatencyHistogram latency;
  constexpr std::size_t kRequests = 200;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.Send("QUERY r0 A=2:40\n"));
    ASSERT_TRUE(client.ReadResponse(&header, &payload));
    ASSERT_EQ(header, "ok 1");
    latency.Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  EXPECT_EQ(latency.count(), kRequests);
  // p99 under 25ms: generous for a sanitized debug build, impossible to
  // meet if even a handful of turnarounds hit a 40ms Nagle stall.
  EXPECT_LT(latency.Quantile(0.99), std::uint64_t{25} * 1000 * 1000)
      << latency.SummaryMicros();
}

TEST_F(DaemonTest, ShutdownFromAnotherThreadClosesClients) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  std::string header;
  std::vector<std::string> payload;
  ASSERT_TRUE(client.Send("PING\n"));
  ASSERT_TRUE(client.ReadResponse(&header, &payload));
  EXPECT_EQ(header, "ok 1");

  server_->Shutdown();
  server_thread_.join();
  EXPECT_TRUE(run_status_.ok()) << run_status_.ToString();
  EXPECT_TRUE(client.AtEof());
}

#endif  // defined(__linux__)

}  // namespace
}  // namespace privelet::serving
