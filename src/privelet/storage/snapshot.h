// Persistent release snapshots — the durable artifact of one publishing
// run. The paper's economics rest on computing a noisy wavelet release
// *once* and answering unbounded range-count traffic from it; a snapshot
// carries everything a serving process needs to do that without
// re-publishing: the schema (attributes and nominal hierarchies), the
// release provenance (mechanism id, epsilon, seed), the noisy frequency
// matrix, and optionally the precomputed prefix-sum table so serving
// starts without even the O(m) rebuild.
//
// PVLS format v2 (all integers little-endian, doubles IEEE-754 binary64;
// the current write format):
//
//   magic "PVLS" | u32 version = 2
//   u16 mech_len | mech_len bytes     mechanism id ("" = unknown)
//   f64 epsilon | u64 seed
//   u8 reserved | u64 reserved          written as 0 | 64; see below
//   u32 num_attributes, then per attribute:
//     u16 name_len | name bytes | u8 kind (0 ordinal, 1 nominal)
//     ordinal: u64 domain_size
//     nominal: u64 num_nodes | u32 child_count per node in BFS order
//   u32 num_dims | u64 dims[num_dims]
//   zero padding to the next 64-byte file offset
//   f64 values[product(dims)]
//   u8 has_table, if 1:
//     u16 mant_dig | u16 accum_bytes    (53, 8): binary64 entries
//     zero padding to the next 64-byte file offset
//     f64 table[product(dims)]          product(dims) * accum_bytes bytes
//   u32 crc32 of every preceding byte (padding included)
//
// Both payload sections start on a 64-byte file offset so a page-aligned
// memory mapping of the file yields naturally aligned f64 arrays:
// MappedSnapshot serves queries straight out of those sections with zero
// copies. The table entries are little-endian IEEE-754 binary64, which
// every IEEE platform adopts as is. Any other (mant_dig, accum_bytes) —
// the (64, 16) x87 extended-precision tables written before the table
// became double — is not adoptable: readers skip the section and rebuild
// the table from the matrix, which the determinism contract
// (docs/DETERMINISM.md) guarantees equals a fresh build bit for bit.
//
// The two reserved fields once recorded a line-engine choice (0 tiled,
// 1 naive) and a panel width. Writers emit 0 | 64, the old default, so
// files stay byte-identical to earlier default publishes; readers still
// reject a first byte > 1 as corrupt and otherwise ignore both. v4 drops
// them.
//
// PVLS v1 differs in the payload sections only — no alignment padding and
// double-double encoded entries (u16 mant_dig | u8 exact | (f64 hi,
// f64 lo) per cell), which are not adoptable either. v1 files stay
// readable by every reader, MappedSnapshot included: its values are
// copied out of the mapping when they are unaligned, and its table is
// rebuilt.
//
// PVLS v3 = v2 plus a plan section directly after the seed, present
// exactly when the release was published under a workload-adaptive plan
// (query::PlanRecord):
//
//   u16 chosen_len | chosen bytes      planner candidate id
//   f64 predicted_variance
//   u16 runner_up_len | bytes          "" = no alternative
//   f64 runner_up_variance
//   u32 workload_queries
//
// The writer emits v3 only for releases carrying a plan; plan-less
// releases keep producing byte-identical v2 files, so pre-planner
// snapshots and tools interoperate unchanged (backward and forward
// compatibility in one rule).
//
// There is one parse, over a read-only memory mapping of the whole file,
// behind ReadSnapshot, InspectSnapshot and MappedSnapshot::Open. It checks
// the magic and version, then the CRC once over the mapping, then parses
// the header defensively: every variable-length field is validated against
// the bytes actually remaining in the file before any allocation, and
// dimension products are checked for overflow. The payload sections are
// only located; each reader then views or copies them. A path that cannot
// be opened or is not a regular file is an IOError; a corrupt, truncated
// or unknown-version file is an InvalidArgument, never a crash. A file
// truncated while it is mapped raises SIGBUS on access, so writers only
// ever rename a finished file into place (SnapshotStreamWriter).
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
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/matrix/prefix_sum.h"
#include "privelet/query/plan_record.h"

namespace privelet::storage {

/// A decoded release snapshot: everything WriteSnapshot persists and
/// ReadSnapshot restores. `prefix` is absent when the file carried no
/// table (or carried one this platform cannot adopt losslessly);
/// PublishingSession::FromSnapshot rebuilds it in that case.
struct ReleaseSnapshot {
  data::Schema schema;
  std::string mechanism;  ///< Mechanism::name() of the publisher; "" unknown
  double epsilon = 0.0;   ///< privacy budget of the release; 0 unknown
  std::uint64_t seed = 0;  ///< publish seed; with mechanism+epsilon+schema
                           ///< this pins the release bytes exactly
  matrix::FrequencyMatrix published;
  std::optional<matrix::PrefixSumTable<double>> prefix;
  /// Planner provenance (PVLS v3 files only; nullopt for v1/v2).
  std::optional<query::PlanRecord> plan;
};

/// Non-owning view over the fields WriteSnapshot serializes. Lets callers
/// that already own the pieces (storage::SaveSession streaming a live
/// PublishingSession) write a snapshot without copying the matrix or
/// table into a ReleaseSnapshot first. `prefix` may be null (no table
/// section is written).
struct ReleaseSnapshotView {
  const data::Schema* schema = nullptr;
  std::string_view mechanism;
  double epsilon = 0.0;
  std::uint64_t seed = 0;
  const matrix::FrequencyMatrix* published = nullptr;
  const matrix::PrefixSumTable<double>* prefix = nullptr;
  /// Non-null selects the PVLS v3 format and writes the plan section.
  const query::PlanRecord* plan = nullptr;
};

/// Incremental PVLS v2 writer — the out-of-core publish path's exit.
/// Where WriteSnapshot needs the whole release resident at once, this
/// class accepts the matrix values (and optionally the prefix-table
/// entries) in caller-chosen chunks, so a streamed publish can drain
/// each panel to disk and release its pages before producing the next:
///
///   SnapshotStreamWriter w;
///   w.Begin(path, header);          // writes magic..dims + padding
///   w.AppendValues(panel);          // repeat until all cells written
///   w.BeginPrefixTable();           // optional; writes the table header
///   w.AppendTableEntries(chunk);    // repeat until all cells written
///   w.Finish();                     // CRC, fsync, atomic rename
///
/// The byte stream is identical to WriteSnapshot's for the same logical
/// release — WriteSnapshot is implemented on top of this class, so the
/// identity holds by construction, not by parallel maintenance
/// (docs/DETERMINISM.md). Until Finish succeeds everything lands in a
/// unique temp file next to `path`; dropping the writer early (or a
/// failed Finish) removes it and leaves any previous snapshot untouched.
/// The cell count is pinned by the schema at Begin: appending more than
/// product(DomainSizes()) values fails, and Finish fails unless exactly
/// that many values (and table entries, if the section was begun) were
/// appended. Movable, not copyable.
class SnapshotStreamWriter {
 public:
  /// The release provenance written ahead of the payload sections —
  /// ReleaseSnapshotView minus the payloads themselves.
  struct Header {
    const data::Schema* schema = nullptr;
    std::string_view mechanism;
    double epsilon = 0.0;
    std::uint64_t seed = 0;
    /// Non-null selects PVLS v3 and writes the plan section after the
    /// seed; null keeps the plan-less v2 byte stream.
    const query::PlanRecord* plan = nullptr;
  };

  SnapshotStreamWriter();
  ~SnapshotStreamWriter();
  SnapshotStreamWriter(SnapshotStreamWriter&&) noexcept;
  SnapshotStreamWriter& operator=(SnapshotStreamWriter&&) noexcept;

  /// Opens the temp file and writes everything up to (and including) the
  /// matrix section's alignment padding. Must be the first call.
  Status Begin(const std::string& path, const Header& header);

  /// Appends the next chunk of matrix values (row-major continuation of
  /// the previous chunk). Any chunking is valid, including empty spans.
  Status AppendValues(std::span<const double> values);

  /// Ends the matrix section and opens the prefix-table section. Valid
  /// only once, after every matrix value has been appended. Skipping this
  /// call writes a snapshot without a table section.
  Status BeginPrefixTable();

  /// Appends the next chunk of prefix-table entries (flat-index order).
  Status AppendTableEntries(std::span<const double> entries);

  /// Validates completeness, appends the CRC, fsyncs, and renames the
  /// temp file over `path`. The writer is spent afterwards.
  Status Finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Streams `view` to `path` in PVLS v2 format (v3 when `view.plan` is
/// set), overwriting any existing file. The matrix dims must equal the
/// schema's domain sizes, and a
/// non-null prefix table must share them. Thin wrapper over
/// SnapshotStreamWriter (one AppendValues / AppendTableEntries call
/// each), so its bytes match any chunked streaming of the same release.
Status WriteSnapshot(const std::string& path, const ReleaseSnapshotView& view);

/// Convenience overload over an owning snapshot.
Status WriteSnapshot(const std::string& path, const ReleaseSnapshot& snapshot);

/// Reads and fully validates a snapshot (v1, v2 or v3): structural limits,
/// dimension overflow, schema/matrix agreement, hierarchy invariants
/// (data::Hierarchy::FromSpec re-checks them), and the trailing CRC.
/// This is the copy path — the payloads are copied out of the mapping into
/// owned storage; the zero-copy alternative is MappedSnapshot below.
Result<ReleaseSnapshot> ReadSnapshot(const std::string& path);

/// Reads only the metadata of a snapshot — everything except the matrix
/// values and table entries, which are located but not read (still
/// CRC-verified). What `privelet_cli inspect` prints; the CRC pass still
/// reads the whole file, but nothing proportional to it is allocated.
struct SnapshotInfo {
  std::uint32_t version = 0;  ///< PVLS format version of the file (1, 2, 3)
  data::Schema schema;
  std::string mechanism;
  double epsilon = 0.0;
  std::uint64_t seed = 0;
  /// Planner provenance (v3 files only).
  std::optional<query::PlanRecord> plan;
  std::vector<std::size_t> dims;
  std::size_t num_cells = 0;
  bool has_prefix_table = false;
  /// The table section's accumulator header (v1: its mant_dig, and 16
  /// bytes per double-double entry); 0 when the file carries no table.
  std::uint16_t table_mant_dig = 0;
  std::uint16_t table_accum_bytes = 0;
  /// Whether loaders adopt the stored table (binary64 in v2/v3) instead
  /// of rebuilding it from the matrix in O(m).
  bool table_adoptable = false;
  std::uint64_t file_bytes = 0;
  /// Payload section layout: file offset and byte length of the matrix
  /// values and (when has_prefix_table) the raw table entries. In v2
  /// both offsets are multiples of the 64-byte section alignment; the
  /// table fields are 0 when the file carries no table.
  std::uint64_t values_offset = 0;
  std::uint64_t values_bytes = 0;
  std::uint64_t table_offset = 0;
  std::uint64_t table_bytes = 0;
};

Result<SnapshotInfo> InspectSnapshot(const std::string& path);

/// A snapshot served in place from a read-only memory mapping: Open maps
/// the file, checks the CRC once over the whole mapping, and decodes only
/// the small header sections (schema, provenance, dims) — the matrix
/// values and prefix-table entries stay in the file and are exposed as
/// naturally aligned spans over the mapped pages. Opening a v2/v3 file is
/// therefore O(header + CRC) with no allocation proportional to the
/// release, and any number of processes mapping the same snapshot share
/// one set of physical pages.
///
/// v1 files open too. Their sections carry no alignment padding, so
/// unaligned values are copied out of the mapping once, and their
/// double-double table is never adopted (has_prefix_table() is false).
/// Errors are ReadSnapshot's: IOError for a path that cannot be mapped,
/// InvalidArgument for a corrupt or unknown-version file.
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
  std::uint64_t seed() const { return seed_; }
  /// Planner provenance (v3 files only).
  const std::optional<query::PlanRecord>& plan() const { return plan_; }
  const std::vector<std::size_t>& dims() const { return dims_; }
  std::size_t num_cells() const { return values_.size(); }
  std::uint64_t file_bytes() const { return file_.size(); }

  /// The noisy matrix values, row-major, straight from the mapping (or
  /// from the copy of an unaligned v1 section).
  std::span<const double> matrix_values() const { return values_; }

  /// Whether the file carries a binary64 prefix table to adopt in place
  /// (false for legacy accumulators, which callers rebuild).
  bool has_prefix_table() const { return !table_.empty(); }

  /// The raw prefix-table entries (empty when !has_prefix_table()).
  /// Feed to matrix::PrefixSumTable::View for O(1) adoption.
  std::span<const double> prefix_table() const { return table_; }

 private:
  MappedSnapshot() = default;

  common::MappedFile file_;
  data::Schema schema_;
  std::string mechanism_;
  double epsilon_ = 0.0;
  std::uint64_t seed_ = 0;
  std::optional<query::PlanRecord> plan_;
  std::vector<std::size_t> dims_;
  std::unique_ptr<double[]> owned_values_;  ///< unaligned v1 values only
  std::span<const double> values_;
  std::span<const double> table_;
};

}  // namespace privelet::storage

#endif  // PRIVELET_STORAGE_SNAPSHOT_H_
