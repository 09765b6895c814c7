// The network serving daemon: a sharded epoll TCP front end over
// query::ReleaseStore, speaking the protocol in protocol.h (text and
// length-prefixed binary framings on one port). `privelet_cli daemon` is
// a thin wrapper around this class and `privelet_cli client` its line
// client.
//
// Threading model: `num_loops` event loops (default: one per hardware
// thread; 1 is a single loop with a plain listener), each owning its own
// epoll instance, listener and accepted connections — connection state
// is never shared, so request handling needs no locks. With more than
// one loop every listener sets SO_REUSEPORT and the kernel spreads
// accepts across them. A request's AnswerAll still fans its batch across
// the store's worker pool; batches past `compile_batch_threshold` are
// pre-resolved into a query::CompiledWorkload and folded straight from
// the table (bit-identical to the per-query walk — docs/DETERMINISM.md).
// Each loop also keeps small per-release LRU answer caches (canonical
// predicate bytes -> answer), invalidated by the store's Rebind
// generation, so hot repeated queries skip the table walk. Pipelining
// is free: clients may send many requests back to back; a loop answers
// them in order, up to `max_pipeline` per connection per cycle before
// its other connections get a turn.
//
// Observability: per-loop counters are plain relaxed atomics and latency
// histograms are lock-free LatencyHistograms; stats() and the STATS verb
// merge them (LatencyHistogram::Merge) without stopping any loop.
//
// Admission control / backpressure: a connection's unparsed input — a
// line or frame not yet complete, or the predicate lines of a text BATCH
// collected so far — is capped at `max_request_bytes` (past it the
// request is refused and the connection closed); buffered responses are
// capped at `max_buffered_bytes` — a slow client that lets half the cap
// accumulate stops being *read* (requests queue in its socket, then in
// its sender) until the buffer drains, and one that exceeds the full cap
// is dropped. `max_connections` caps the open connections across all
// loops.
//
// Shutdown: Shutdown() is async-signal-safe (one write to each loop's
// wake pipe), so SIGINT/SIGTERM handlers may call it directly; Run()
// then flushes what it can without blocking, closes every connection,
// and returns. Hot swap: the RELOAD verb rebinds a release id through
// ReleaseStore::Rebind — in-flight borrowers on any loop keep their
// session, later requests see the new file (and every loop's answer
// cache for the id dies on the generation bump). A RELOAD whose file
// does not load fails and leaves the id serving its current release.
//
// All public methods other than Shutdown() must be called from one thread
// (Start, then Run; accessors after Start). stats() is thread-safe.
#ifndef PRIVELET_SERVING_SERVER_H_
#define PRIVELET_SERVING_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "privelet/common/result.h"
#include "privelet/common/stopwatch.h"
#include "privelet/query/release_store.h"
#include "privelet/serving/answer_cache.h"
#include "privelet/serving/latency_histogram.h"
#include "privelet/serving/protocol.h"

namespace privelet::serving {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read the bound port with port()
  int backlog = 128;
  std::size_t max_connections = 256;
  /// Pipelined requests answered per connection per event-loop cycle
  /// before other connections are serviced.
  std::size_t max_pipeline = 64;
  /// Cap on one connection's unparsed input bytes, a text BATCH's
  /// predicate lines included.
  std::size_t max_request_bytes = std::size_t{1} << 20;
  /// Cap on one connection's buffered response bytes; reads pause at half
  /// of this, the connection is dropped when it is exceeded.
  std::size_t max_buffered_bytes = std::size_t{4} << 20;
  /// Sharded event loops; 0 = one per hardware thread.
  std::size_t num_loops = 0;
  /// Per-release, per-loop bound on the repeated-query answer cache;
  /// 0 disables caching.
  std::size_t answer_cache_entries = 1024;
  /// Batches with at least this many uncached queries are evaluated
  /// through a compiled workload; smaller ones (and 0, disabling it)
  /// take the per-query walk. Answers are bit-identical either way.
  std::size_t compile_batch_threshold = 8;
};

/// Monotonic counters since Start(), summed over the loops (a snapshot;
/// thread-safe).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_dropped = 0;  ///< closed for cap violations
  std::uint64_t requests = 0;             ///< all verbs, both framings
  std::uint64_t failures = 0;             ///< error responses sent
  std::uint64_t queries = 0;              ///< individual queries answered
  std::uint64_t reloads = 0;              ///< successful RELOADs
  std::uint64_t answer_cache_hits = 0;    ///< queries served from cache
};

class Server {
 public:
  /// `store` is not owned and must outlive the server. Release ids are
  /// whatever has been Register()ed (RELOAD can add more at runtime).
  Server(query::ReleaseStore* store, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens. After an OK return, port() is the bound port and
  /// num_loops() the resolved loop count.
  Status Start();

  /// The bound TCP port (valid after Start).
  std::uint16_t port() const { return port_; }

  /// The resolved event-loop count (valid after Start).
  std::size_t num_loops() const { return num_loops_; }

  /// Serves until Shutdown() or a fatal error. Blocks the calling thread
  /// (which drives loop 0; loops 1..N-1 run on internal threads).
  Status Run();

  /// Requests Run() to drain and return. Async-signal-safe and
  /// idempotent; callable from any thread or from a signal handler.
  void Shutdown();

  ServerStats stats() const;

 private:
  enum class Mode : std::uint8_t { kUnknown, kText, kBinary };

  struct Connection {
    int fd = -1;
    Mode mode = Mode::kUnknown;
    std::string in;        ///< received, not yet parsed (from in_head)
    std::size_t in_head = 0;
    std::string out;       ///< encoded, not yet sent (from out_head)
    std::size_t out_head = 0;
    bool want_close = false;   ///< close once out drains
    bool reading = true;       ///< EPOLLIN armed
    bool writing = false;      ///< EPOLLOUT armed
    // Text BATCH in progress: id + predicate lines collected so far,
    // each '\n'-terminated (their bytes count against max_request_bytes).
    std::string batch_id;
    std::size_t batch_expected = 0;
    std::size_t batch_received = 0;
    std::string batch_lines;
  };

  /// One loop's counters: relaxed atomics, written only by the owning
  /// loop, summed lock-free by stats().
  struct LoopCounters {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_dropped{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> reloads{0};
    std::atomic<std::uint64_t> answer_cache_hits{0};
  };

  /// Everything one event loop owns. Connection state, ready list,
  /// answer caches, and the latency-slot cache are touched only by the
  /// owning loop thread; the counters/histograms are lock-free for
  /// cross-thread readers.
  struct EventLoop {
    std::size_t index = 0;
    int epoll_fd = -1;
    int listen_fd = -1;
    int wake_read_fd = -1;
    int wake_write_fd = -1;
    std::map<int, std::unique_ptr<Connection>> connections;
    std::vector<int> ready;  ///< fds with buffered complete requests
    LoopCounters counters;
    LatencyHistogram all_latency;
    /// Loop-local pointer cache into release_latency_ (one find-or-create
    /// lock per release per loop; the hot path is lock-free after that).
    std::map<std::string, LatencyHistogram*> latency_slots;
    /// Loop-local per-release answer caches.
    std::map<std::string, AnswerCache> caches;
  };

  Status SetupLoop(EventLoop& loop);
  Status SetupListener(EventLoop& loop, bool reuse_port);
  Status RunLoop(EventLoop& loop);
  void AcceptPending(EventLoop& loop);
  void OnReadable(EventLoop& loop, Connection& conn);
  void ProcessConnection(EventLoop& loop, Connection& conn);
  bool ProcessText(EventLoop& loop, Connection& conn, std::size_t* budget);
  bool ProcessBinary(EventLoop& loop, Connection& conn, std::size_t* budget);
  void HandleTextLine(EventLoop& loop, Connection& conn,
                      std::string_view line);
  void FinishTextBatch(EventLoop& loop, Connection& conn);
  /// Answers "request exceeds max_request_bytes" and closes: the stream
  /// cannot resynchronize.
  void RejectOversized(EventLoop& loop, Connection& conn);
  void HandleBinaryRequest(EventLoop& loop, Connection& conn,
                           const BinaryRequest& request);
  /// Acquire + answer one batch, recording latency and counters.
  /// `lines` holds predicate lines separated by '\n' (the last one may
  /// omit it).
  Result<std::vector<double>> AnswerTextQueries(EventLoop& loop,
                                                const std::string& id,
                                                std::string_view lines);
  Result<std::vector<double>> AnswerSpecQueries(
      EventLoop& loop, const std::string& id,
      std::span<const QuerySpec> specs);
  template <typename BuildQueries>
  Result<std::vector<double>> AnswerTimed(EventLoop& loop,
                                          const std::string& id,
                                          const BuildQueries& build);
  /// Scalar per-query walk below the compile threshold, compiled SIMD
  /// evaluation at or above it.
  std::vector<double> Evaluate(const query::PublishingSession& session,
                               std::span<const query::RangeQuery> queries);
  LatencyHistogram* LatencySlot(EventLoop& loop, const std::string& id);
  Result<std::string> DoReload(EventLoop& loop, const std::string& id,
                               const std::string& path);
  std::string RenderStatsText();
  std::string RenderIdsText();

  void AppendTextHeader(Connection& conn, std::size_t payload_lines);
  void AppendTextAnswers(Connection& conn, std::span<const double> answers);
  void AppendTextError(EventLoop& loop, Connection& conn,
                       const Status& status);

  void FlushConnection(Connection& conn);
  void UpdateInterest(EventLoop& loop, Connection& conn);
  void CloseConnection(EventLoop& loop, int fd);
  std::size_t OutPending(const Connection& conn) const {
    return conn.out.size() - conn.out_head;
  }

  query::ReleaseStore* const store_;
  const ServerOptions options_;

  std::size_t num_loops_ = 1;  ///< resolved by Start()
  /// Loop slots are allocated and wired in Start() and structurally
  /// immutable afterwards — Shutdown() (possibly from a signal handler)
  /// only reads wake fds written before Run() began.
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> open_connections_{0};
  Stopwatch uptime_;

  /// id -> one LatencyHistogram per loop (index-aligned with loops_).
  /// The mutex guards only the map structure; recording goes through the
  /// per-loop slots without it.
  mutable std::mutex release_latency_mu_;
  std::map<std::string, std::unique_ptr<LatencyHistogram[]>>
      release_latency_;
};

}  // namespace privelet::serving

#endif  // PRIVELET_SERVING_SERVER_H_
