// PublishingSession: the serving-side facade over one published release.
// It owns (or maps) the release's prefix-sum table and answers
// range-count queries from it — one object to hand to a query-serving
// frontend. All answering entry points are const and thread-safe: any
// number of threads may call Answer / AnswerAll on a shared session
// concurrently, and AnswerAll additionally fans a batch across a worker
// pool.
//
// A session is a schema, the release's prefix-sum table, the release
// metadata and, for a mapped session, the mapping that holds the table.
// Every answer is a range sum over that table, so a publish builds the
// table in place over the storage of the noisy matrix it produces.
//
// Releases outlive processes: storage/session_io.h saves a session's
// table to a PVLS snapshot (SaveSession) and loads it back by copy
// (LoadSession) or in place (MapSession → FromMapped, where the
// table is a span view into the file's pages, kept alive by the
// session). See docs/ARCHITECTURE.md for the publish → snapshot →
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
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/matrix/prefix_sum.h"
#include "privelet/mechanism/mechanism.h"
#include "privelet/query/compiled_workload.h"
#include "privelet/query/plan_record.h"
#include "privelet/query/range_query.h"

namespace privelet::storage {
class MappedSnapshot;
}  // namespace privelet::storage

namespace privelet::query {

/// Provenance of a published release, carried by the session and
/// persisted in its snapshot. Publish() records the real values; sessions
/// wrapped around a bare matrix (FromMatrix) report the defaults below.
/// The noise seed is not part of it: whoever holds the seed can
/// regenerate the noise. Neither is how the publish ran: streamed and
/// in-core publishes of a release are byte-identical
/// (docs/DETERMINISM.md); prefix_table().is_scratch() tells a live
/// session's storage.
struct ReleaseMetadata {
  std::string mechanism;   ///< Mechanism::name() of the publisher; "" unknown
  double epsilon = 0.0;    ///< privacy budget; 0 unknown
  /// Workload-adaptive planner decision behind this release (nullopt for
  /// releases published without --auto-plan); persisted in the
  /// snapshot's plan section.
  std::optional<PlanRecord> plan;
};

class PublishingSession {
 public:
  /// Publishes `m` under `mech` at (epsilon, seed) and wraps the release:
  /// the noisy matrix is summed in place into the prefix table, which
  /// takes over its storage. A scratch-backed `m` publishes out of core
  /// (Mechanism::Publish), and the table then stays in the release's
  /// scratch mapping, its build paced by the budget the release records.
  /// `pool` is used for batched answering and the prefix-sum build (and is
  /// handed to nothing else — configure parallel publishing on the
  /// mechanism via set_thread_pool). Not owned; may be nullptr (serial
  /// serving) and must outlive the session otherwise.
  static Result<PublishingSession> Publish(
      const data::Schema& schema, const mechanism::Mechanism& mech,
      const matrix::FrequencyMatrix& m, double epsilon, std::uint64_t seed,
      common::ThreadPool* pool = nullptr);

  /// Wraps an already-published release matrix by building its prefix
  /// table (the matrix is not kept). The matrix dims must match the
  /// schema's domain sizes. The provenance is unknown (default
  /// ReleaseMetadata).
  static Result<PublishingSession> FromMatrix(
      const data::Schema& schema, const matrix::FrequencyMatrix& published,
      common::ThreadPool* pool = nullptr);

  /// Wraps an already-built prefix-sum table, whose dims must match the
  /// schema's domain sizes — the path behind Publish, FromMatrix and
  /// LoadSession. The entries are trusted to be a release's prefix sums.
  static Result<PublishingSession> FromParts(
      const data::Schema& schema, matrix::PrefixSumTable table,
      ReleaseMetadata metadata, common::ThreadPool* pool = nullptr);

  /// Wraps a memory-mapped snapshot as a zero-copy serving session: the
  /// table views the file's pages directly (no O(m) copy or rebuild —
  /// opening is O(header + CRC)). The session shares ownership of the
  /// mapping, which therefore stays alive until the last session using
  /// it is gone. Implemented in
  /// storage/session_io.cc.
  static Result<PublishingSession> FromMapped(
      std::shared_ptr<const storage::MappedSnapshot> mapped,
      common::ThreadPool* pool = nullptr);

  const data::Schema& schema() const { return *schema_; }

  /// Provenance of the release (mechanism id, epsilon, plan).
  const ReleaseMetadata& metadata() const { return metadata_; }

  /// Attaches the workload-planner decision behind this release to its
  /// provenance. Call after Publish and before SaveSession so the
  /// snapshot's plan section round-trips it.
  void set_plan(PlanRecord plan) { metadata_.plan = std::move(plan); }

  /// The serving prefix-sum table (what snapshots persist). For mapped
  /// sessions this is a non-owning view into the snapshot file. Copies
  /// of a session share it.
  const matrix::PrefixSumTable& prefix_table() const { return *table_; }

  /// Answer of one query against the release: one range sum over the
  /// table. Thread-safe.
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
                    std::shared_ptr<const matrix::PrefixSumTable> table,
                    ReleaseMetadata metadata, common::ThreadPool* pool,
                    std::shared_ptr<const void> mapping = nullptr);

  // Shared, not copied, by copies of the session: copying a table is
  // deep. `mapping_` pins the MappedSnapshot (and with it the pages a
  // mapped session's table views) — declared before `table_` so
  // destruction unmaps only after the table is gone.
  std::shared_ptr<const data::Schema> schema_;
  std::shared_ptr<const void> mapping_;
  std::shared_ptr<const matrix::PrefixSumTable> table_;
  ReleaseMetadata metadata_;
  common::ThreadPool* pool_;
};

}  // namespace privelet::query

#endif  // PRIVELET_QUERY_PUBLISHING_SESSION_H_
