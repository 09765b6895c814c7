// PublishingSession: the serving-side facade over one published release.
// It owns (or maps) the release's prefix-sum evaluator and answers
// range-count queries from it — one object to hand to a query-serving
// frontend. All answering entry points are const and thread-safe: any
// number of threads may call Answer / AnswerAll on a shared session
// concurrently, and AnswerAll additionally fans a batch across a worker
// pool.
//
// Releases outlive processes: ToSnapshot / FromSnapshot (implemented in
// storage/session_io.cc, which also provides the file-level
// SaveSession / LoadSession) round-trip a session through the PVLS
// snapshot format, so a serving process loads a release — including its
// precomputed prefix-sum table — instead of re-running the publish.
// FromMapped goes one step further: the session serves straight out of a
// memory-mapped v2 snapshot (storage::MappedSnapshot) with zero copies —
// the evaluator's table is a span view into the file's pages, kept alive
// by the session. See docs/ARCHITECTURE.md for the publish → snapshot →
// serve dataflow.
#ifndef PRIVELET_QUERY_PUBLISHING_SESSION_H_
#define PRIVELET_QUERY_PUBLISHING_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "privelet/common/result.h"
#include "privelet/common/thread_pool.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/engine.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/matrix/prefix_sum.h"
#include "privelet/mechanism/mechanism.h"
#include "privelet/query/compiled_workload.h"
#include "privelet/query/evaluator.h"
#include "privelet/query/plan_record.h"
#include "privelet/query/range_query.h"

namespace privelet::storage {
struct ReleaseSnapshot;
class MappedSnapshot;
}  // namespace privelet::storage

namespace privelet::query {

/// How a release's publish ran. Deliberately NOT persisted in snapshots:
/// streamed and in-core publishes of the same release produce
/// byte-identical PVLS files (docs/DETERMINISM.md), so the mode exists
/// only in the memory of the process that ran the publish — sessions
/// loaded from a file report kUnknown.
enum class PublishMode {
  kUnknown,  ///< not published by this process (loaded / wrapped matrix)
  kInCore,   ///< whole release resident during the publish
  kStreamed  ///< out-of-core: panels staged through mmap scratch files
};

/// Provenance of a published release, carried by the session and
/// persisted in its snapshot (publish_mode excepted — see PublishMode).
/// Publish() records the real values; sessions wrapped around a bare
/// matrix (FromMatrix) report the defaults below.
struct ReleaseMetadata {
  std::string mechanism;   ///< Mechanism::name() of the publisher; "" unknown
  double epsilon = 0.0;    ///< privacy budget; 0 unknown
  std::uint64_t seed = 0;  ///< publish seed; 0 when unknown
  PublishMode publish_mode = PublishMode::kUnknown;  ///< in-memory only
  /// Workload-adaptive planner decision behind this release (nullopt for
  /// releases published without --auto-plan). Persisted: snapshots with a
  /// plan are written as PVLS v3, plan-less ones stay byte-identical v2.
  std::optional<PlanRecord> plan;
};

class PublishingSession {
 public:
  /// Publishes `m` under `mech` at (epsilon, seed) and wraps the release.
  /// `pool` is used for batched answering and the prefix-sum build (and is
  /// handed to nothing else — configure parallel publishing on the
  /// mechanism via set_thread_pool). Not owned; may be nullptr (serial
  /// serving) and must outlive the session otherwise. `options` selects
  /// the line engine of the prefix-sum build (matrix/engine.h); the
  /// mechanism's own engine is configured via set_engine_options.
  static Result<PublishingSession> Publish(
      const data::Schema& schema, const mechanism::Mechanism& mech,
      const matrix::FrequencyMatrix& m, double epsilon, std::uint64_t seed,
      common::ThreadPool* pool = nullptr,
      const matrix::EngineOptions& options = {});

  /// Wraps an already-published release (e.g. loaded from disk). The
  /// matrix dims must match the schema's domain sizes. The provenance is
  /// unknown (default ReleaseMetadata).
  static Result<PublishingSession> FromMatrix(
      const data::Schema& schema, matrix::FrequencyMatrix published,
      common::ThreadPool* pool = nullptr,
      const matrix::EngineOptions& options = {});

  /// Wraps a fully materialized release: matrix plus its already-built
  /// prefix-sum table (dims of both must match the schema) — the
  /// skip-the-O(m)-rebuild path behind FromSnapshot. The table entries
  /// are trusted to be the prefix sums of `published`.
  static Result<PublishingSession> FromParts(
      const data::Schema& schema, matrix::FrequencyMatrix published,
      matrix::PrefixSumTable<double> table, ReleaseMetadata metadata,
      common::ThreadPool* pool = nullptr,
      const matrix::EngineOptions& options = {});

  /// Rebuilds a serving session from a decoded release snapshot, reusing
  /// the snapshot's prefix table when present and rebuilding it (with
  /// `pool`, under the snapshot's engine options) otherwise. Answers are
  /// bit-identical either way. Implemented in storage/session_io.cc —
  /// the storage layer sits above query in the dependency order.
  static Result<PublishingSession> FromSnapshot(
      storage::ReleaseSnapshot snapshot, common::ThreadPool* pool = nullptr);

  /// Wraps a memory-mapped v2 snapshot as a zero-copy serving session:
  /// when the mapping carries an adoptable prefix table, the evaluator
  /// views the file's pages directly (no O(m) copy or rebuild — opening
  /// is O(header + CRC)); otherwise the table is rebuilt from the mapped
  /// matrix values, still without materializing a matrix copy. The
  /// session shares ownership of the mapping, which therefore stays
  /// alive until the last session (and evaluator) using it is gone.
  /// Mapped sessions do not materialize the release matrix:
  /// has_published() is false. Implemented in storage/session_io.cc.
  static Result<PublishingSession> FromMapped(
      std::shared_ptr<const storage::MappedSnapshot> mapped,
      common::ThreadPool* pool = nullptr);

  /// Deep-copies this session's release into an owning snapshot (schema,
  /// metadata, matrix, prefix table). To persist without the copy, use
  /// storage::SaveSession, which streams straight from the live session.
  /// Requires has_published() (a mapped session is already a file).
  /// Implemented in storage/session_io.cc.
  storage::ReleaseSnapshot ToSnapshot() const;

  const data::Schema& schema() const { return *schema_; }

  /// Whether this session materializes the release matrix. True for every
  /// construction path except FromMapped.
  bool has_published() const { return published_ != nullptr; }

  /// The release matrix. PRIVELET_CHECKs has_published() — mapped
  /// sessions serve from the snapshot's pages and hold no matrix object.
  const matrix::FrequencyMatrix& published() const;

  /// Provenance of the release (mechanism id, epsilon, seed).
  const ReleaseMetadata& metadata() const { return metadata_; }

  /// Attaches the workload-planner decision behind this release to its
  /// provenance. Call after Publish and before SaveSession/ToSnapshot so
  /// the snapshot (PVLS v3) round-trips it.
  void set_plan(PlanRecord plan) { metadata_.plan = std::move(plan); }

  /// Engine options this session was built with (serving-side prefix-sum
  /// build and AnswerAll; persisted in snapshots).
  const matrix::EngineOptions& engine_options() const { return options_; }

  /// The serving prefix-sum table (what snapshots persist). For mapped
  /// sessions this is a non-owning view into the snapshot file.
  const matrix::PrefixSumTable<double>& prefix_table() const {
    return evaluator_->table();
  }

  /// Answer of one query against the release. Thread-safe.
  double Answer(const RangeQuery& query) const;

  /// Answers of a whole batch, in input order, fanned across the session
  /// pool. Thread-safe: concurrent AnswerAll calls interleave on the
  /// shared workers.
  std::vector<double> AnswerAll(std::span<const RangeQuery> queries) const;

  /// Pre-resolves a batch against this release's table shape; the result
  /// may be answered repeatedly (and concurrently) via AnswerCompiled.
  CompiledWorkload Compile(std::span<const RangeQuery> queries) const;

  /// Answers a compiled batch, in input order, fanned across the session
  /// pool. Bit-identical to AnswerAll on the same queries
  /// (query::CompiledWorkload header). Thread-safe.
  std::vector<double> AnswerCompiled(const CompiledWorkload& workload) const;

 private:
  PublishingSession(std::shared_ptr<const data::Schema> schema,
                    std::shared_ptr<const matrix::FrequencyMatrix> published,
                    std::shared_ptr<const QueryEvaluator> evaluator,
                    ReleaseMetadata metadata, common::ThreadPool* pool,
                    const matrix::EngineOptions& options,
                    std::shared_ptr<const void> mapping = nullptr);

  /// Shared assembly behind every matrix-owning factory: heap-holds the
  /// schema and matrix, builds the evaluator (adopting `table` when
  /// present, else the O(m) build on `pool` under `options`). Dims have
  /// already been validated by the caller. Takes the schema by value so
  /// load paths that own one (FromSnapshot) move instead of copying.
  static PublishingSession BuildOwned(
      data::Schema schema, matrix::FrequencyMatrix published,
      std::optional<matrix::PrefixSumTable<double>> table,
      ReleaseMetadata metadata, common::ThreadPool* pool,
      const matrix::EngineOptions& options);

  // Heap-held so moves of the session never invalidate the references the
  // evaluator keeps into schema and matrix. `published_` is null for
  // mapped sessions; `mapping_` pins the MappedSnapshot (and with it the
  // pages the evaluator's table views) for the session's lifetime —
  // declared before `evaluator_` so destruction unmaps only after the
  // evaluator (whose table may view the mapped pages) is gone.
  std::shared_ptr<const data::Schema> schema_;
  std::shared_ptr<const matrix::FrequencyMatrix> published_;
  std::shared_ptr<const void> mapping_;
  std::shared_ptr<const QueryEvaluator> evaluator_;
  ReleaseMetadata metadata_;
  matrix::EngineOptions options_;
  common::ThreadPool* pool_;
};

}  // namespace privelet::query

#endif  // PRIVELET_QUERY_PUBLISHING_SESSION_H_
