// ReleaseStore: a thread-safe catalog of published releases for one
// serving process. The ROADMAP's traffic model is many scenarios resident
// at once — one process answering mixed workloads over dozens of
// releases — so the store maps release ids to snapshot paths and turns
// them into live PublishingSessions lazily: a release costs nothing until
// its first query, snapshots are memory-mapped in place (zero-copy,
// O(header + CRC) open), and an optional LRU bound caps how
// many stay resident. Sessions are handed out as shared_ptrs, so eviction never
// yanks a release out from under an in-flight batch — the mapping is
// unmapped when the last borrower drops it.
//
// All public methods are safe to call concurrently; concurrent Acquire
// calls for the same cold release share a single load instead of racing
// to map the file N times.
//
// Layering note (docs/ARCHITECTURE.md): this header is storage-free, but
// release_store.cc composes storage::MapSession with the session
// facade — it is the serving tip of the library, above both query and
// storage.
#ifndef PRIVELET_QUERY_RELEASE_STORE_H_
#define PRIVELET_QUERY_RELEASE_STORE_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "privelet/common/result.h"
#include "privelet/common/thread_pool.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/range_query.h"

namespace privelet::query {

class ReleaseStore {
 public:
  struct Options {
    /// Maximum number of resident (loaded) releases; 0 = unbounded. When
    /// a load pushes the count past the bound, the least recently used
    /// resident releases are evicted (never the one just loaded).
    std::size_t max_resident = 0;
    /// Pool for batched answering. Not owned; may be nullptr (serial) and
    /// must outlive the store otherwise.
    common::ThreadPool* pool = nullptr;
  };

  /// Monotonic counters since construction (a snapshot; taken under the
  /// store lock).
  struct Stats {
    std::uint64_t loads = 0;      ///< snapshot opens (mapped or copy)
    std::uint64_t hits = 0;       ///< Acquire calls served by a resident session
    std::uint64_t evictions = 0;  ///< sessions dropped by the LRU bound or Evict
  };

  ReleaseStore();  // default Options
  explicit ReleaseStore(Options options);

  /// Catalogs `id` -> `path` without touching the file (errors surface on
  /// first Acquire). Duplicate ids are rejected.
  Status Register(std::string id, std::string path);

  /// Points `id` at `path`, registering it if unknown — the hot-swap
  /// behind the daemon's RELOAD verb. Any resident session for `id` is
  /// dropped (borrowed shared_ptrs stay valid; in-flight borrowers finish
  /// on the old release) and the new file is loaded. If it fails to load,
  /// the error is returned and the binding's path and generation are left
  /// as they were, so the next Acquire reloads the current release. On
  /// success the new session is resident, and a load of the old path
  /// still in flight is discarded on completion instead of being
  /// installed.
  Status Rebind(std::string id, std::string path);

  /// All registered ids, sorted.
  std::vector<std::string> ids() const;

  /// The live session for `id`, loading it on first use (and after an
  /// eviction). The returned shared_ptr keeps the release — including a
  /// mapped snapshot's pages — alive regardless of later evictions, so
  /// callers may hold it across an entire batch. NotFound for unknown
  /// ids; load failures are returned to every concurrent waiter and not
  /// cached (a later Acquire retries the file).
  Result<std::shared_ptr<const PublishingSession>> Acquire(
      const std::string& id);

  /// Convenience: Acquire(id) then pooled AnswerAll on the session.
  Result<std::vector<double>> AnswerAll(const std::string& id,
                                        std::span<const RangeQuery> queries);

  /// The resident session for `id`, or nullptr when the release is not
  /// loaded (or the id unknown). Unlike Acquire this never triggers a
  /// load, eviction, or LRU refresh — the diagnostics path (daemon STATS
  /// reporting release plans) must observe the store, not reshape it.
  std::shared_ptr<const PublishingSession> PeekResident(
      const std::string& id) const;

  /// Rebind generation of `id`: a nonzero value that changes every time
  /// Rebind points the id at a new path, and 0 for unknown ids. The
  /// serving layer keys its per-release answer caches on this — read the
  /// generation BEFORE Acquire and stamp cached answers with it, so a
  /// Rebind racing the read at worst invalidates one extra time, never
  /// serves a stale answer under the new generation.
  std::uint64_t generation(const std::string& id) const;

  /// Drops the resident session for `id`, if any (borrowed shared_ptrs
  /// stay valid). Returns true when a session was resident. Unknown ids
  /// return false.
  bool Evict(const std::string& id);

  /// Drops every resident session.
  void EvictAll();

  /// Number of currently resident sessions.
  std::size_t resident_count() const;

  Stats stats() const;

 private:
  using SessionResult = Result<std::shared_ptr<const PublishingSession>>;

  struct Entry {
    std::string path;
    std::shared_ptr<const PublishingSession> session;  ///< null until loaded
    /// In-flight load, shared by every concurrent Acquire of this id.
    std::shared_ptr<std::shared_future<SessionResult>> inflight;
    std::uint64_t last_used = 0;
    /// Bumped by Rebind; a loader only installs its session when the
    /// generation it captured is still current.
    std::uint64_t generation = 0;
  };

  /// Evicts least-recently-used resident sessions (excluding `keep`)
  /// until the bound holds. Caller holds mu_.
  void EnforceBoundLocked(const Entry* keep);

  const Options options_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  ///< node-stable; Entry* survive
  std::uint64_t tick_ = 0;                ///< LRU clock
  Stats stats_;
};

}  // namespace privelet::query

#endif  // PRIVELET_QUERY_RELEASE_STORE_H_
