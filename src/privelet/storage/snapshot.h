// Persistent release snapshots — the durable artifact of one publishing
// run. The paper's economics rest on computing a noisy wavelet release
// *once* and answering unbounded range-count traffic from it; every
// answer is a range sum over the release's prefix-sum table, so a
// snapshot carries exactly what a serving process needs for that: the
// schema (attributes and nominal hierarchies), the release provenance
// (mechanism id, epsilon, optional planner decision) and the prefix-sum
// table. The noisy matrix itself is not stored, and neither is the noise
// seed: a persisted seed lets anyone regenerate the noise and subtract it.
//
// PVLS format v4 (all integers little-endian, doubles IEEE-754 binary64;
// the only format read or written):
//
//   magic "PVLS" | u32 version = 4
//   u16 mech_len | mech_len bytes     mechanism id ("" = unknown)
//   f64 epsilon
//   u32 num_attributes, then per attribute:
//     u16 name_len | name bytes | u8 kind (0 ordinal, 1 nominal)
//     ordinal: u64 domain_size
//     nominal: u64 num_nodes | u32 child_count per node in BFS order
//   u32 num_dims | u64 dims[num_dims]
//   u8 has_plan, if 1 (workload-adaptive publish, query::PlanRecord):
//     u16 chosen_len | chosen bytes      planner candidate id
//     f64 predicted_variance
//     u16 runner_up_len | bytes          "" = no alternative
//     f64 runner_up_variance
//     u32 workload_queries
//   zero padding to the next 64-byte file offset
//   f64 table[product(dims)]           inclusive prefix sums, row-major
//   u32 crc32 of every preceding byte (padding included)
//
// The table starts on a 64-byte file offset so a page-aligned memory
// mapping of the file yields a naturally aligned f64 array: MappedSnapshot
// serves queries straight out of it with zero copies.
//
// Files of PVLS v1, v2 and v3 (which also carried the noisy matrix, the
// publish seed and, in v1/v2, legacy table encodings) are rejected with
// InvalidArgument naming their version; such a release is re-published.
//
// There is one parse, over a read-only memory mapping of the whole file,
// behind InspectSnapshot and MappedSnapshot::Open (and so behind every
// session loader in storage/session_io.h). It checks the magic and
// version, then the CRC once over the mapping, then parses the header
// defensively: every variable-length field is validated against
// the bytes actually remaining in the file before any allocation, and
// dimension products are checked for overflow. The table is only located;
// each reader then views or copies it. A path that cannot be opened or is
// not a regular file is an IOError; a corrupt, truncated or unsupported-
// version file is an InvalidArgument, never a crash. A file truncated
// while it is mapped raises SIGBUS on access, so writers only ever rename
// a finished file into place (SnapshotStreamWriter).
#ifndef PRIVELET_STORAGE_SNAPSHOT_H_
#define PRIVELET_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "privelet/common/file_mapping.h"
#include "privelet/common/result.h"
#include "privelet/data/schema.h"
#include "privelet/query/plan_record.h"

namespace privelet::storage {

/// The PVLS writer. It accepts the table entries in caller-chosen chunks,
/// so a save of a scratch-backed table can drain each chunk to disk and
/// release its pages before producing the next:
///
///   SnapshotStreamWriter w;
///   w.Begin(path, header);          // writes magic..plan + padding
///   w.AppendTableEntries(chunk);    // repeat until all cells written
///   w.Finish();                     // CRC, fsync, atomic rename
///
/// The library's one writer, storage::SaveSession, goes through this
/// class, and chunking cannot change the bytes, so equal releases give
/// equal files by construction (docs/DETERMINISM.md).
/// Until Finish succeeds everything lands in a unique temp file next to
/// `path`; dropping the writer early (or a failed Finish) removes it and
/// leaves any previous snapshot untouched.
/// The cell count is pinned by the schema at Begin: appending more than
/// product(DomainSizes()) entries fails, and Finish fails unless exactly
/// that many were appended. Movable, not copyable.
class SnapshotStreamWriter {
 public:
  /// The release provenance written ahead of the table.
  struct Header {
    const data::Schema* schema = nullptr;
    std::string_view mechanism;
    double epsilon = 0.0;
    /// Non-null writes the plan section.
    const query::PlanRecord* plan = nullptr;
  };

  SnapshotStreamWriter();
  ~SnapshotStreamWriter();
  SnapshotStreamWriter(SnapshotStreamWriter&&) noexcept;
  SnapshotStreamWriter& operator=(SnapshotStreamWriter&&) noexcept;

  /// Opens the temp file and writes everything up to (and including) the
  /// table's alignment padding. Must be the first call.
  Status Begin(const std::string& path, const Header& header);

  /// Appends the next chunk of prefix-table entries (flat-index order).
  /// Any chunking is valid, including empty spans. A failed write spends
  /// the writer.
  Status AppendTableEntries(std::span<const double> entries);

  /// Validates completeness, appends the CRC, fsyncs, and renames the
  /// temp file over `path`. The writer is spent afterwards.
  Status Finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Reads only the metadata of a snapshot — everything except the table
/// entries, which are located but not read (still CRC-verified). What
/// `privelet_cli inspect` prints; the CRC pass still reads the whole
/// file, but nothing proportional to it is allocated.
struct SnapshotInfo {
  std::uint32_t version = 0;  ///< PVLS format version of the file (4)
  data::Schema schema;
  std::string mechanism;
  double epsilon = 0.0;
  /// Planner provenance (nullopt when the file has no plan section).
  std::optional<query::PlanRecord> plan;
  std::vector<std::size_t> dims;
  std::size_t num_cells = 0;
  std::uint64_t file_bytes = 0;
  /// File offset (a multiple of 64) and byte length of the table entries.
  std::uint64_t table_offset = 0;
  std::uint64_t table_bytes = 0;
};

Result<SnapshotInfo> InspectSnapshot(const std::string& path);

/// A snapshot served in place from a read-only memory mapping: Open maps
/// the file, checks the CRC once over the whole mapping, and decodes only
/// the small header sections (schema, provenance, dims) — the table
/// entries stay in the file and are exposed as a naturally aligned span
/// over the mapped pages. Opening is therefore O(header + CRC) with no
/// allocation proportional to the release, and any number of processes
/// mapping the same snapshot share one set of physical pages. Errors:
/// IOError for a path that cannot be mapped, InvalidArgument for a
/// corrupt or unsupported-version file.
///
/// Movable, not copyable. Every span dies with the object;
/// PublishingSession::FromMapped keeps it alive (via shared_ptr) for as
/// long as an evaluator serves from it.
class MappedSnapshot {
 public:
  static Result<MappedSnapshot> Open(const std::string& path);

  const data::Schema& schema() const { return schema_; }
  const std::string& mechanism() const { return mechanism_; }
  double epsilon() const { return epsilon_; }
  /// Planner provenance (nullopt when the file has no plan section).
  const std::optional<query::PlanRecord>& plan() const { return plan_; }
  const std::vector<std::size_t>& dims() const { return dims_; }
  std::size_t num_cells() const { return table_.size(); }
  std::uint64_t file_bytes() const { return file_.size(); }

  /// The raw prefix-table entries, straight from the mapping. Feed to
  /// matrix::PrefixSumTable::View for O(1) adoption.
  std::span<const double> prefix_table() const { return table_; }

 private:
  MappedSnapshot() = default;

  common::MappedFile file_;
  data::Schema schema_;
  std::string mechanism_;
  double epsilon_ = 0.0;
  std::optional<query::PlanRecord> plan_;
  std::vector<std::size_t> dims_;
  std::span<const double> table_;
};

}  // namespace privelet::storage

#endif  // PRIVELET_STORAGE_SNAPSHOT_H_
