#include "privelet/storage/snapshot.h"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <atomic>

#if defined(_WIN32)
#include <process.h>
#else
#include <fcntl.h>
#include <unistd.h>
#endif

#include "privelet/common/io_util.h"
#include "privelet/data/attribute.h"
#include "privelet/data/hierarchy.h"
#include "privelet/storage/crc32.h"

namespace privelet::storage {

namespace {

constexpr char kMagic[4] = {'P', 'V', 'L', 'S'};
constexpr std::uint32_t kVersionLegacy = 1;  // double-double table encoding
constexpr std::uint32_t kVersion = 2;        // aligned sections, raw accum
constexpr std::uint32_t kVersionPlanned = 3;  // v2 + planner provenance

// Payload sections (matrix values, table entries) start on this file
// offset multiple so a page-aligned memory mapping yields naturally
// aligned arrays — the precondition for MappedSnapshot's zero-copy spans.
constexpr std::size_t kSectionAlignment = 64;

// Structural limits. Generous against every real release, tight enough
// that a corrupt length field cannot drive a pathological allocation on
// its own (allocations are additionally bounded by the bytes actually
// remaining in the file).
constexpr std::size_t kMaxNameLen = 4096;
constexpr std::size_t kMaxAttributes = 256;
constexpr std::size_t kMaxDims = 64;

constexpr std::size_t kChunkElements = 1 << 14;  // 128 KiB of doubles

// The table-section header of the only accumulator written and adopted:
// IEEE-754 binary64, (mant_dig, accum_bytes) = (53, 8).
constexpr std::uint16_t kTableMantDig = std::numeric_limits<double>::digits;
constexpr std::uint16_t kTableAccumBytes = sizeof(double);

bool CheckedMul(std::size_t a, std::size_t b, std::size_t* out) {
  if (a != 0 && b > std::numeric_limits<std::size_t>::max() / a) return false;
  *out = a * b;
  return true;
}

std::size_t PadBytes(std::uint64_t offset) {
  return static_cast<std::size_t>((kSectionAlignment -
                                   offset % kSectionAlignment) %
                                  kSectionAlignment);
}

// Unique-per-writer temp name next to the destination, so concurrent
// saves to the same path never share (and never truncate each other's)
// in-progress file — the loser of the final rename race fails cleanly
// with the previous snapshot, or the winner's output, intact.
std::string TempSnapshotPath(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
#if defined(_WIN32)
  const unsigned long pid = static_cast<unsigned long>(_getpid());
#else
  const unsigned long pid = static_cast<unsigned long>(::getpid());
#endif
  return path + ".tmp." + std::to_string(pid) + "." +
         std::to_string(counter.fetch_add(1));
}

// Flushes a closed file's data to stable storage. No-op where fsync is
// unavailable (Windows std-only build) — there the rename below is not
// crash-atomic either.
Status SyncFile(const std::string& path) {
#if !defined(_WIN32)
  const int fd = common::OpenRetry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot reopen '" + path + "' to sync it");
  }
  const Status synced = common::FsyncRetry(fd, path);
  common::CloseFd(fd);
  PRIVELET_RETURN_IF_ERROR(synced);
#else
  (void)path;
#endif
  return Status::OK();
}

// Makes the rename itself durable by syncing the containing directory.
// Best effort: some filesystems refuse directory fsync; the file's data
// is already durable by then.
void SyncParentDirectory(const std::string& path) {
#if !defined(_WIN32)
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = common::OpenRetry(dir.c_str(),
                                   O_RDONLY | O_CLOEXEC | O_DIRECTORY);
  if (fd >= 0) {
    (void)common::FsyncRetry(fd, dir);
    common::CloseFd(fd);
  }
#else
  (void)path;
#endif
}

// ---------------------------------------------------------------------------
// Streaming writer: every byte goes through the running CRC; Finish()
// appends the checksum. No staging buffer exists anywhere — both payload
// sections are written straight from the caller's memory.
//
// The stream targets a unique temp file next to `path` and Finish()
// renames it into place: serving processes keep snapshots memory-mapped
// for long periods, and truncating a live mapping's file in place would
// SIGBUS its readers — the rename swaps the directory entry while
// existing mappings keep the old inode. A failed write leaves the
// previous snapshot untouched.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(const std::string& path)
      : path_(path),
        tmp_path_(TempSnapshotPath(path)),
        out_(tmp_path_, std::ios::binary | std::ios::trunc) {}

  ~SnapshotWriter() {
    // Finish() not reached (validation error in the caller) or failed:
    // drop the partial temp file.
    if (!finished_) {
      out_.close();
      std::remove(tmp_path_.c_str());
    }
  }

  bool ok() const { return static_cast<bool>(out_); }
  const std::string& tmp_path() const { return tmp_path_; }

  void WriteRaw(const void* data, std::size_t len) {
    crc_ = Crc32Update(crc_, data, len);
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(len));
    offset_ += len;
  }

  template <typename T>
  void WritePod(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteRaw(&value, sizeof(value));
  }

  void WriteString(std::string_view s) {
    WritePod(static_cast<std::uint16_t>(s.size()));
    WriteRaw(s.data(), s.size());
  }

  /// Zero-fills up to the next kSectionAlignment file offset.
  void PadToSectionAlignment() {
    static constexpr char kZeros[kSectionAlignment] = {};
    const std::size_t pad = PadBytes(offset_);
    if (pad > 0) WriteRaw(kZeros, pad);
  }

  Status Finish() {
    const std::uint32_t crc = Crc32Finish(crc_);
    out_.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    out_.flush();
    if (!out_) return Status::IOError("write to '" + tmp_path_ + "' failed");
    out_.close();
    // Replace semantics must survive a crash: the temp file's data has to
    // be durable before the rename may be, or a power cut can persist the
    // rename over still-unwritten blocks and destroy the old snapshot.
    PRIVELET_RETURN_IF_ERROR(SyncFile(tmp_path_));
    if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
#if defined(_WIN32)
      // Windows rename does not replace an existing destination; the
      // non-atomic remove+rename is the best that std:: offers there.
      std::remove(path_.c_str());
      if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0)
#endif
        return Status::IOError("cannot move '" + tmp_path_ +
                               "' into place at '" + path_ + "'");
    }
    SyncParentDirectory(path_);  // best effort; the data itself is durable
    finished_ = true;
    return Status::OK();
  }

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  bool finished_ = false;
  std::uint64_t offset_ = 0;
  std::uint32_t crc_ = kCrc32Init;
};

// ---------------------------------------------------------------------------
// Streaming reader over [start, file_size - 4): tracks the bytes left
// before the trailing CRC so every length field can be bounds-checked
// prior to allocation, and folds everything it reads into the running
// CRC for the final comparison.
class SnapshotReader {
 public:
  static Result<SnapshotReader> Open(const std::string& path) {
    SnapshotReader r(path);
    if (!r.in_) {
      return Status::IOError("cannot open '" + path + "' for reading");
    }
    r.in_.seekg(0, std::ios::end);
    const std::streamoff size = r.in_.tellg();
    r.in_.seekg(0, std::ios::beg);
    if (size < 0) return Status::IOError("cannot stat '" + path + "'");
    r.file_bytes_ = static_cast<std::uint64_t>(size);
    if (r.file_bytes_ < sizeof(kMagic) + sizeof(std::uint32_t) * 2) {
      return r.Corrupt("file too short to be a snapshot");
    }
    r.remaining_ = r.file_bytes_ - sizeof(std::uint32_t);  // minus the CRC
    return r;
  }

  const std::string& path() const { return path_; }
  std::uint64_t file_bytes() const { return file_bytes_; }
  std::uint64_t remaining() const { return remaining_; }
  /// Bytes consumed so far (== the current file offset).
  std::uint64_t offset() const { return offset_; }

  Status Corrupt(const std::string& what) const {
    return Status::InvalidArgument("snapshot '" + path_ + "': " + what);
  }

  Status ReadRaw(void* dst, std::size_t len, const char* what) {
    if (len > remaining_) {
      return Corrupt(std::string("truncated while reading ") + what);
    }
    in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(len));
    if (!in_ || in_.gcount() != static_cast<std::streamsize>(len)) {
      return Corrupt(std::string("read failed in ") + what);
    }
    crc_ = Crc32Update(crc_, dst, len);
    remaining_ -= len;
    offset_ += len;
    return Status::OK();
  }

  template <typename T>
  Status ReadPod(T* dst, const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadRaw(dst, sizeof(T), what);
  }

  Status ReadString(std::string* dst, std::size_t max_len, const char* what) {
    std::uint16_t len = 0;
    PRIVELET_RETURN_IF_ERROR(ReadPod(&len, what));
    if (len > max_len) {
      return Corrupt(std::string(what) + " length out of bounds");
    }
    dst->resize(len);
    return ReadRaw(dst->data(), len, what);
  }

  /// Consumes `len` bytes without keeping them (metadata-only reads still
  /// need the full stream folded into the CRC).
  Status Skip(std::size_t len, const char* what) {
    std::vector<char> scratch(std::min<std::size_t>(len, kChunkElements * 8));
    while (len > 0) {
      const std::size_t step = std::min(len, scratch.size());
      PRIVELET_RETURN_IF_ERROR(ReadRaw(scratch.data(), step, what));
      len -= step;
    }
    return Status::OK();
  }

  /// Verifies every payload byte was consumed and the trailing checksum
  /// matches the stream.
  Status VerifyCrc() {
    if (remaining_ != 0) {
      return Corrupt("trailing bytes after the table section");
    }
    std::uint32_t stored = 0;
    in_.read(reinterpret_cast<char*>(&stored), sizeof(stored));
    if (!in_ || in_.gcount() != sizeof(stored)) {
      return Corrupt("missing trailing CRC");
    }
    if (stored != Crc32Finish(crc_)) {
      return Corrupt("CRC mismatch (file corrupted)");
    }
    return Status::OK();
  }

 private:
  explicit SnapshotReader(const std::string& path)
      : path_(path), in_(path, std::ios::binary) {}

  std::string path_;
  std::ifstream in_;
  std::uint64_t file_bytes_ = 0;
  std::uint64_t remaining_ = 0;
  std::uint64_t offset_ = 0;
  std::uint32_t crc_ = kCrc32Init;
};

// ---------------------------------------------------------------------------
// In-memory reader over an already-mapped payload (everything before the
// trailing CRC). The CRC is verified once over the whole mapping before
// parsing starts, so this reader only bounds-checks; Skip is O(1), which
// is what makes MappedSnapshot::Open O(header) after the checksum pass.
// Mirrors SnapshotReader's interface so the section parsers below are
// shared templates.
class MemReader {
 public:
  MemReader(std::string path, std::span<const std::byte> payload)
      : path_(std::move(path)), payload_(payload) {}

  const std::string& path() const { return path_; }
  std::uint64_t remaining() const { return payload_.size() - pos_; }
  std::uint64_t offset() const { return pos_; }

  /// The current read position inside the mapping (used to take section
  /// spans without copying).
  const std::byte* cursor() const { return payload_.data() + pos_; }

  Status Corrupt(const std::string& what) const {
    return Status::InvalidArgument("snapshot '" + path_ + "': " + what);
  }

  Status ReadRaw(void* dst, std::size_t len, const char* what) {
    if (len > remaining()) {
      return Corrupt(std::string("truncated while reading ") + what);
    }
    std::memcpy(dst, payload_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  template <typename T>
  Status ReadPod(T* dst, const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadRaw(dst, sizeof(T), what);
  }

  Status ReadString(std::string* dst, std::size_t max_len, const char* what) {
    std::uint16_t len = 0;
    PRIVELET_RETURN_IF_ERROR(ReadPod(&len, what));
    if (len > max_len) {
      return Corrupt(std::string(what) + " length out of bounds");
    }
    dst->resize(len);
    return ReadRaw(dst->data(), len, what);
  }

  Status Skip(std::size_t len, const char* what) {
    if (len > remaining()) {
      return Corrupt(std::string("truncated while reading ") + what);
    }
    pos_ += len;
    return Status::OK();
  }

 private:
  std::string path_;
  std::span<const std::byte> payload_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Schema section (shared between the streamed and mapped readers).

void WriteHierarchy(SnapshotWriter& w, const data::Hierarchy& h) {
  w.WritePod(static_cast<std::uint64_t>(h.num_nodes()));
  for (std::size_t id = 0; id < h.num_nodes(); ++id) {
    w.WritePod(static_cast<std::uint32_t>(h.fanout(id)));
  }
}

// Rebuilds the recursive spec from BFS child counts: node ids are
// assigned in BFS order, so node i's children are the next fanout(i)
// unclaimed ids. Recursion depth is the hierarchy height, which is
// <= log2(num_nodes) because every internal fanout is >= 2 (enforced
// below before recursing).
data::HierarchySpec BuildSpec(const std::vector<std::uint32_t>& counts,
                              const std::vector<std::size_t>& first_child,
                              std::size_t id) {
  data::HierarchySpec spec;
  spec.children.reserve(counts[id]);
  for (std::uint32_t c = 0; c < counts[id]; ++c) {
    spec.children.push_back(BuildSpec(counts, first_child, first_child[id] + c));
  }
  return spec;
}

template <typename Reader>
Result<data::Hierarchy> ReadHierarchy(Reader& r) {
  std::uint64_t num_nodes = 0;
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&num_nodes, "hierarchy node count"));
  // Each node costs 4 bytes; bounding by the remaining bytes caps the
  // allocation at the file size.
  if (num_nodes < 3 || num_nodes > r.remaining() / sizeof(std::uint32_t)) {
    return r.Corrupt("hierarchy node count out of bounds");
  }
  std::vector<std::uint32_t> counts(num_nodes);
  PRIVELET_RETURN_IF_ERROR(r.ReadRaw(
      counts.data(), num_nodes * sizeof(std::uint32_t), "hierarchy fanouts"));
  // BFS id assignment; fanout 1 is rejected here (FromSpec would too) so
  // the spec recursion depth stays logarithmic in num_nodes.
  std::vector<std::size_t> first_child(num_nodes, 0);
  std::size_t next = 1;
  for (std::size_t id = 0; id < num_nodes; ++id) {
    if (counts[id] == 1) return r.Corrupt("hierarchy node with fanout 1");
    first_child[id] = next;
    if (counts[id] > num_nodes - next) {
      return r.Corrupt("hierarchy child counts exceed the node count");
    }
    next += counts[id];
  }
  if (next != num_nodes) {
    return r.Corrupt("hierarchy child counts do not cover the node count");
  }
  auto hierarchy =
      data::Hierarchy::FromSpec(BuildSpec(counts, first_child, 0));
  if (!hierarchy.ok()) {
    return r.Corrupt("invalid hierarchy: " + hierarchy.status().message());
  }
  return hierarchy;
}

void WriteSchema(SnapshotWriter& w, const data::Schema& schema) {
  w.WritePod(static_cast<std::uint32_t>(schema.num_attributes()));
  for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
    const data::Attribute& attr = schema.attribute(a);
    w.WriteString(attr.name());
    w.WritePod(static_cast<std::uint8_t>(attr.is_nominal() ? 1 : 0));
    if (attr.is_nominal()) {
      WriteHierarchy(w, attr.hierarchy());
    } else {
      w.WritePod(static_cast<std::uint64_t>(attr.domain_size()));
    }
  }
}

template <typename Reader>
Result<data::Schema> ReadSchema(Reader& r) {
  std::uint32_t num_attributes = 0;
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&num_attributes, "attribute count"));
  if (num_attributes == 0 || num_attributes > kMaxAttributes) {
    return r.Corrupt("attribute count out of bounds");
  }
  std::vector<data::Attribute> attrs;
  attrs.reserve(num_attributes);
  for (std::uint32_t a = 0; a < num_attributes; ++a) {
    std::string name;
    PRIVELET_RETURN_IF_ERROR(r.ReadString(&name, kMaxNameLen, "attribute name"));
    if (name.empty()) return r.Corrupt("empty attribute name");
    std::uint8_t kind = 0;
    PRIVELET_RETURN_IF_ERROR(r.ReadPod(&kind, "attribute kind"));
    if (kind == 0) {
      std::uint64_t domain = 0;
      PRIVELET_RETURN_IF_ERROR(r.ReadPod(&domain, "ordinal domain size"));
      // Even a legitimate domain is bounded by the matrix values stored
      // inline later; per-attribute, the file must at least hold one f64
      // per domain value.
      if (domain == 0 || domain > r.remaining() / sizeof(double)) {
        return r.Corrupt("ordinal domain size out of bounds");
      }
      attrs.push_back(data::Attribute::Ordinal(
          std::move(name), static_cast<std::size_t>(domain)));
    } else if (kind == 1) {
      PRIVELET_ASSIGN_OR_RETURN(data::Hierarchy h, ReadHierarchy(r));
      attrs.push_back(data::Attribute::Nominal(std::move(name), std::move(h)));
    } else {
      return r.Corrupt("unknown attribute kind");
    }
  }
  return data::Schema(std::move(attrs));
}

// ---------------------------------------------------------------------------
// Reserved header fields (formerly the line engine and its panel width).

void WriteReservedFields(SnapshotWriter& w) {
  w.WritePod(std::uint8_t{0});
  w.WritePod(std::uint64_t{64});
}

template <typename Reader>
Status SkipReservedFields(Reader& r) {
  std::uint8_t engine = 0;
  std::uint64_t panel_width = 0;
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&engine, "line engine"));
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&panel_width, "panel width"));
  if (engine > 1) return r.Corrupt("unknown line engine");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Matrix and table sections.

template <typename Reader>
Result<std::vector<std::size_t>> ReadDims(Reader& r,
                                          const data::Schema& schema) {
  std::uint32_t num_dims = 0;
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&num_dims, "dimension count"));
  if (num_dims == 0 || num_dims > kMaxDims) {
    return r.Corrupt("dimension count out of bounds");
  }
  std::vector<std::size_t> dims(num_dims);
  std::size_t cells = 1;
  for (auto& d : dims) {
    std::uint64_t dim = 0;
    PRIVELET_RETURN_IF_ERROR(r.ReadPod(&dim, "dimension"));
    if (dim == 0) return r.Corrupt("zero dimension");
    d = static_cast<std::size_t>(dim);
    if (d != dim || !CheckedMul(cells, d, &cells)) {
      return r.Corrupt("dimension product overflows");
    }
  }
  // The values follow inline, so a genuine snapshot can never claim more
  // cells than the file has bytes for — reject before allocating.
  std::size_t payload = 0;
  if (!CheckedMul(cells, sizeof(double), &payload) ||
      payload > r.remaining()) {
    return r.Corrupt("matrix payload exceeds the file size");
  }
  if (dims != schema.DomainSizes()) {
    return r.Corrupt("matrix dims do not match the schema");
  }
  return dims;
}

/// v2 only: consumes the zero padding bringing the reader to the next
/// section-aligned offset. Nonzero padding is rejected so the byte format
/// stays canonical (identical releases <=> identical files).
template <typename Reader>
Status ConsumeSectionPadding(Reader& r) {
  const std::size_t pad = PadBytes(r.offset());
  if (pad == 0) return Status::OK();
  unsigned char buf[kSectionAlignment];
  PRIVELET_RETURN_IF_ERROR(r.ReadRaw(buf, pad, "section padding"));
  for (std::size_t i = 0; i < pad; ++i) {
    if (buf[i] != 0) return r.Corrupt("nonzero section padding");
  }
  return Status::OK();
}

// Everything up to (and including) the dims field — identical in v1 and
// v2, shared by the streamed readers and MappedSnapshot.
struct HeaderFields {
  std::uint32_t version = 0;
  std::string mechanism;
  double epsilon = 0.0;
  std::uint64_t seed = 0;
  std::optional<query::PlanRecord> plan;
  data::Schema schema;
  std::vector<std::size_t> dims;
  std::size_t cells = 0;
};

template <typename Reader>
Status ParseHeaderFields(Reader& r, HeaderFields* out) {
  char magic[4];
  PRIVELET_RETURN_IF_ERROR(r.ReadRaw(magic, sizeof(magic), "magic"));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + r.path() +
                                   "' is not a PVLS release snapshot");
  }
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&out->version, "version"));
  if (out->version != kVersionLegacy && out->version != kVersion &&
      out->version != kVersionPlanned) {
    return r.Corrupt("unsupported snapshot version");
  }
  PRIVELET_RETURN_IF_ERROR(
      r.ReadString(&out->mechanism, kMaxNameLen, "mechanism id"));
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&out->epsilon, "epsilon"));
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&out->seed, "seed"));
  if (out->version >= kVersionPlanned) {
    query::PlanRecord plan;
    PRIVELET_RETURN_IF_ERROR(
        r.ReadString(&plan.chosen, kMaxNameLen, "plan chosen id"));
    if (plan.chosen.empty()) {
      return r.Corrupt("planned snapshot without a chosen mechanism");
    }
    PRIVELET_RETURN_IF_ERROR(
        r.ReadPod(&plan.predicted_variance, "plan predicted variance"));
    PRIVELET_RETURN_IF_ERROR(
        r.ReadString(&plan.runner_up, kMaxNameLen, "plan runner-up id"));
    PRIVELET_RETURN_IF_ERROR(
        r.ReadPod(&plan.runner_up_variance, "plan runner-up variance"));
    PRIVELET_RETURN_IF_ERROR(
        r.ReadPod(&plan.workload_queries, "plan workload size"));
    out->plan = std::move(plan);
  }
  PRIVELET_RETURN_IF_ERROR(SkipReservedFields(r));
  PRIVELET_ASSIGN_OR_RETURN(out->schema, ReadSchema(r));
  PRIVELET_ASSIGN_OR_RETURN(out->dims, ReadDims(r, out->schema));
  // Overflow-checked by ReadDims (and bounded by the file size).
  out->cells = 1;
  for (std::size_t d : out->dims) out->cells *= d;
  return Status::OK();
}

// v2 table-section header: binary64 entries are adopted verbatim (a raw
// copy or view); any other accumulator — the x87 (64, 16) tables written
// before the table became double — falls back to the deterministic
// rebuild from the matrix.
struct TableSectionV2 {
  std::uint16_t mant_dig = 0;
  std::uint16_t accum_bytes = 0;
  std::size_t payload = 0;

  bool adoptable() const {
    return mant_dig == kTableMantDig && accum_bytes == kTableAccumBytes;
  }
};

template <typename Reader>
Status ReadTableSectionHeaderV2(Reader& r, std::size_t cells,
                                TableSectionV2* section) {
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&section->mant_dig, "table accumulator"));
  PRIVELET_RETURN_IF_ERROR(
      r.ReadPod(&section->accum_bytes, "table accumulator width"));
  if (section->accum_bytes == 0 || section->accum_bytes > 64) {
    return r.Corrupt("table accumulator width out of bounds");
  }
  PRIVELET_RETURN_IF_ERROR(ConsumeSectionPadding(r));
  if (!CheckedMul(cells, section->accum_bytes, &section->payload) ||
      section->payload > r.remaining()) {
    return r.Corrupt("prefix-table payload exceeds the file size");
  }
  return Status::OK();
}

// Shared parse behind ReadSnapshot and InspectSnapshot: `snapshot` is
// filled when non-null, otherwise payloads are skipped (still streamed
// through the CRC) and only `info` is filled.
Status ParseSnapshot(const std::string& path, ReleaseSnapshot* snapshot,
                     SnapshotInfo* info) {
  PRIVELET_ASSIGN_OR_RETURN(SnapshotReader r, SnapshotReader::Open(path));
  HeaderFields h;
  PRIVELET_RETURN_IF_ERROR(ParseHeaderFields(r, &h));
  const std::size_t cells = h.cells;

  if (h.version >= kVersion) {
    PRIVELET_RETURN_IF_ERROR(ConsumeSectionPadding(r));
  }
  const std::uint64_t values_offset = r.offset();
  std::uint64_t table_offset = 0;
  std::uint64_t table_bytes = 0;
  matrix::FrequencyMatrix published;
  if (snapshot != nullptr) {
    published = matrix::FrequencyMatrix(h.dims);
    PRIVELET_RETURN_IF_ERROR(r.ReadRaw(published.values().data(),
                                       cells * sizeof(double),
                                       "matrix values"));
  } else {
    PRIVELET_RETURN_IF_ERROR(r.Skip(cells * sizeof(double), "matrix values"));
  }

  std::uint8_t has_table = 0;
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&has_table, "table flag"));
  if (has_table > 1) return r.Corrupt("bad table flag");
  std::optional<matrix::PrefixSumTable<double>> prefix;
  TableSectionV2 section;
  if (has_table == 1 && h.version == kVersionLegacy) {
    // v1 double-double entries are never adopted: the table is rebuilt
    // from the matrix, so the section is only validated and skipped.
    std::uint8_t exact = 0;
    PRIVELET_RETURN_IF_ERROR(
        r.ReadPod(&section.mant_dig, "table accumulator"));
    PRIVELET_RETURN_IF_ERROR(r.ReadPod(&exact, "table exactness"));
    section.accum_bytes = 2 * sizeof(double);
    if (!CheckedMul(cells, section.accum_bytes, &section.payload) ||
        section.payload > r.remaining()) {
      return r.Corrupt("prefix-table payload exceeds the file size");
    }
    table_offset = r.offset();
    table_bytes = section.payload;
    PRIVELET_RETURN_IF_ERROR(r.Skip(section.payload, "prefix-table entries"));
  } else if (has_table == 1) {
    PRIVELET_RETURN_IF_ERROR(ReadTableSectionHeaderV2(r, cells, &section));
    table_offset = r.offset();
    table_bytes = section.payload;
    if (snapshot != nullptr && section.adoptable()) {
      // The entries are binary64 verbatim — one read, no decode.
      auto sums = std::make_unique_for_overwrite<double[]>(cells);
      PRIVELET_RETURN_IF_ERROR(
          r.ReadRaw(sums.get(), section.payload, "prefix-table entries"));
      prefix.emplace(h.dims, std::move(sums));
    } else {
      PRIVELET_RETURN_IF_ERROR(r.Skip(section.payload,
                                      "prefix-table entries"));
    }
  }
  PRIVELET_RETURN_IF_ERROR(r.VerifyCrc());

  if (snapshot != nullptr) {
    snapshot->schema = std::move(h.schema);
    snapshot->mechanism = std::move(h.mechanism);
    snapshot->epsilon = h.epsilon;
    snapshot->seed = h.seed;
    snapshot->published = std::move(published);
    snapshot->prefix = std::move(prefix);
    snapshot->plan = std::move(h.plan);
  } else {
    info->version = h.version;
    info->plan = std::move(h.plan);
    info->schema = std::move(h.schema);
    info->mechanism = std::move(h.mechanism);
    info->epsilon = h.epsilon;
    info->seed = h.seed;
    info->dims = std::move(h.dims);
    info->num_cells = cells;
    info->has_prefix_table = has_table == 1;
    info->table_mant_dig = section.mant_dig;
    info->table_accum_bytes = section.accum_bytes;
    info->table_adoptable = section.adoptable();
    info->file_bytes = r.file_bytes();
    info->values_offset = values_offset;
    info->values_bytes = cells * sizeof(double);
    info->table_offset = table_offset;
    info->table_bytes = table_bytes;
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotStreamWriter: the public incremental facade over SnapshotWriter.
// The cell count is fixed by the schema at Begin; the state machine below
// only enforces section ordering and completeness — every byte written
// goes through the same SnapshotWriter helpers as the one-shot path, so
// chunking cannot change the output.

struct SnapshotStreamWriter::Impl {
  enum class State { kValues, kTable, kDone };

  explicit Impl(const std::string& path) : writer(path) {}

  SnapshotWriter writer;
  State state = State::kValues;
  std::size_t expected_cells = 0;
  std::size_t appended = 0;  // values or table entries, per `state`
};

SnapshotStreamWriter::SnapshotStreamWriter() = default;
SnapshotStreamWriter::~SnapshotStreamWriter() = default;
SnapshotStreamWriter::SnapshotStreamWriter(SnapshotStreamWriter&&) noexcept =
    default;
SnapshotStreamWriter& SnapshotStreamWriter::operator=(
    SnapshotStreamWriter&&) noexcept = default;

Status SnapshotStreamWriter::Begin(const std::string& path,
                                   const Header& header) {
  if (impl_ != nullptr) {
    return Status::FailedPrecondition("snapshot stream already begun");
  }
  if (header.schema == nullptr) {
    return Status::InvalidArgument("snapshot header missing schema");
  }
  if (header.mechanism.size() > kMaxNameLen) {
    return Status::InvalidArgument("mechanism id too long");
  }
  if (header.plan != nullptr) {
    if (header.plan->chosen.empty()) {
      return Status::InvalidArgument("plan record without a chosen mechanism");
    }
    if (header.plan->chosen.size() > kMaxNameLen ||
        header.plan->runner_up.size() > kMaxNameLen) {
      return Status::InvalidArgument("plan candidate id too long");
    }
  }
  for (std::size_t a = 0; a < header.schema->num_attributes(); ++a) {
    if (header.schema->attribute(a).name().size() > kMaxNameLen) {
      return Status::InvalidArgument("attribute name too long");
    }
  }
  const std::vector<std::size_t> dims = header.schema->DomainSizes();
  std::size_t cells = 1;
  for (const std::size_t d : dims) {
    if (!CheckedMul(cells, d, &cells)) {
      return Status::InvalidArgument("schema dimension product overflows");
    }
  }

  auto impl = std::make_unique<Impl>(path);
  SnapshotWriter& w = impl->writer;
  if (!w.ok()) {
    return Status::IOError("cannot open '" + w.tmp_path() + "' for writing");
  }
  w.WriteRaw(kMagic, sizeof(kMagic));
  // Plan-less releases keep the v2 byte stream exactly; only a recorded
  // plan opts the file into v3 (so pre-planner readers and byte-compare
  // harnesses see no difference unless the new feature is used).
  w.WritePod(header.plan != nullptr ? kVersionPlanned : kVersion);
  w.WriteString(header.mechanism);
  w.WritePod(header.epsilon);
  w.WritePod(header.seed);
  if (header.plan != nullptr) {
    w.WriteString(header.plan->chosen);
    w.WritePod(header.plan->predicted_variance);
    w.WriteString(header.plan->runner_up);
    w.WritePod(header.plan->runner_up_variance);
    w.WritePod(header.plan->workload_queries);
  }
  WriteReservedFields(w);
  WriteSchema(w, *header.schema);
  w.WritePod(static_cast<std::uint32_t>(dims.size()));
  for (const std::size_t d : dims) {
    w.WritePod(static_cast<std::uint64_t>(d));
  }
  w.PadToSectionAlignment();
  if (!w.ok()) {
    return Status::IOError("write to '" + w.tmp_path() + "' failed");
  }
  impl->expected_cells = cells;
  impl_ = std::move(impl);
  return Status::OK();
}

Status SnapshotStreamWriter::AppendValues(std::span<const double> values) {
  if (impl_ == nullptr || impl_->state != Impl::State::kValues) {
    return Status::FailedPrecondition(
        "AppendValues outside the matrix section");
  }
  if (values.size() > impl_->expected_cells - impl_->appended) {
    return Status::InvalidArgument(
        "more matrix values than the schema's cell count");
  }
  impl_->writer.WriteRaw(values.data(), values.size() * sizeof(double));
  impl_->appended += values.size();
  if (!impl_->writer.ok()) {
    return Status::IOError("write to '" + impl_->writer.tmp_path() +
                           "' failed");
  }
  return Status::OK();
}

Status SnapshotStreamWriter::BeginPrefixTable() {
  if (impl_ == nullptr || impl_->state != Impl::State::kValues) {
    return Status::FailedPrecondition("prefix table already begun");
  }
  if (impl_->appended != impl_->expected_cells) {
    return Status::FailedPrecondition(
        "prefix table begun before every matrix value was appended");
  }
  SnapshotWriter& w = impl_->writer;
  w.WritePod(static_cast<std::uint8_t>(1));
  w.WritePod(kTableMantDig);
  w.WritePod(kTableAccumBytes);
  w.PadToSectionAlignment();
  impl_->state = Impl::State::kTable;
  impl_->appended = 0;
  if (!w.ok()) {
    return Status::IOError("write to '" + w.tmp_path() + "' failed");
  }
  return Status::OK();
}

Status SnapshotStreamWriter::AppendTableEntries(
    std::span<const double> entries) {
  if (impl_ == nullptr || impl_->state != Impl::State::kTable) {
    return Status::FailedPrecondition(
        "AppendTableEntries outside the table section");
  }
  if (entries.size() > impl_->expected_cells - impl_->appended) {
    return Status::InvalidArgument(
        "more table entries than the schema's cell count");
  }
  impl_->writer.WriteRaw(entries.data(), entries.size() * sizeof(double));
  impl_->appended += entries.size();
  if (!impl_->writer.ok()) {
    return Status::IOError("write to '" + impl_->writer.tmp_path() +
                           "' failed");
  }
  return Status::OK();
}

Status SnapshotStreamWriter::Finish() {
  if (impl_ == nullptr) {
    return Status::FailedPrecondition("snapshot stream not begun");
  }
  if (impl_->state == Impl::State::kDone) {
    return Status::FailedPrecondition("snapshot stream already finished");
  }
  if (impl_->appended != impl_->expected_cells) {
    return Status::InvalidArgument(
        impl_->state == Impl::State::kValues
            ? "matrix section incomplete at Finish"
            : "prefix-table section incomplete at Finish");
  }
  if (impl_->state == Impl::State::kValues) {
    impl_->writer.WritePod(static_cast<std::uint8_t>(0));  // no table
  }
  impl_->state = Impl::State::kDone;
  const Status status = impl_->writer.Finish();
  impl_.reset();  // drops the temp file when Finish failed
  return status;
}

Status WriteSnapshot(const std::string& path,
                     const ReleaseSnapshotView& view) {
  if (view.schema == nullptr || view.published == nullptr) {
    return Status::InvalidArgument("snapshot view missing schema or matrix");
  }
  if (view.published->dims() != view.schema->DomainSizes()) {
    return Status::InvalidArgument(
        "snapshot matrix dims do not match the schema");
  }
  if (view.prefix != nullptr && view.prefix->dims() != view.published->dims()) {
    return Status::InvalidArgument(
        "snapshot prefix-table dims do not match the matrix");
  }

  SnapshotStreamWriter w;
  SnapshotStreamWriter::Header header;
  header.schema = view.schema;
  header.mechanism = view.mechanism;
  header.epsilon = view.epsilon;
  header.seed = view.seed;
  header.plan = view.plan;
  PRIVELET_RETURN_IF_ERROR(w.Begin(path, header));
  PRIVELET_RETURN_IF_ERROR(w.AppendValues(view.published->values()));
  if (view.prefix != nullptr) {
    PRIVELET_RETURN_IF_ERROR(w.BeginPrefixTable());
    PRIVELET_RETURN_IF_ERROR(w.AppendTableEntries(view.prefix->raw_sums()));
  }
  return w.Finish();
}

Status WriteSnapshot(const std::string& path, const ReleaseSnapshot& snapshot) {
  ReleaseSnapshotView view;
  view.schema = &snapshot.schema;
  view.mechanism = snapshot.mechanism;
  view.epsilon = snapshot.epsilon;
  view.seed = snapshot.seed;
  view.published = &snapshot.published;
  view.prefix = snapshot.prefix.has_value() ? &*snapshot.prefix : nullptr;
  view.plan = snapshot.plan.has_value() ? &*snapshot.plan : nullptr;
  return WriteSnapshot(path, view);
}

Result<ReleaseSnapshot> ReadSnapshot(const std::string& path) {
  ReleaseSnapshot snapshot;
  PRIVELET_RETURN_IF_ERROR(ParseSnapshot(path, &snapshot, nullptr));
  return snapshot;
}

Result<SnapshotInfo> InspectSnapshot(const std::string& path) {
  SnapshotInfo info;
  PRIVELET_RETURN_IF_ERROR(ParseSnapshot(path, nullptr, &info));
  return info;
}

Result<MappedSnapshot> MappedSnapshot::Open(const std::string& path) {
  PRIVELET_ASSIGN_OR_RETURN(common::MappedFile file,
                            common::MappedFile::Open(path));
  const std::span<const std::byte> bytes = file.bytes();
  const auto corrupt = [&path](const std::string& what) {
    return Status::InvalidArgument("snapshot '" + path + "': " + what);
  };
  if (bytes.size() < sizeof(kMagic) + sizeof(std::uint32_t) * 2) {
    return corrupt("file too short to be a snapshot");
  }
  // Version gate before the O(file) CRC pass, so the v1 fallback to the
  // copy loader stays cheap.
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a PVLS release snapshot");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
  if (version != kVersion && version != kVersionPlanned) {
    return Status::FailedPrecondition(
        "snapshot '" + path + "' is PVLS v" + std::to_string(version) +
        " — only v2/v3 sections can be mapped in place; use the copy loader");
  }
  // CRC checked exactly once, over the whole mapping.
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - sizeof(stored),
              sizeof(stored));
  if (stored != Crc32(bytes.data(), bytes.size() - sizeof(stored))) {
    return corrupt("CRC mismatch (file corrupted)");
  }

  MemReader r(path, bytes.first(bytes.size() - sizeof(std::uint32_t)));
  HeaderFields h;
  PRIVELET_RETURN_IF_ERROR(ParseHeaderFields(r, &h));
  PRIVELET_RETURN_IF_ERROR(ConsumeSectionPadding(r));

  MappedSnapshot mapped;
  const std::byte* values_ptr = r.cursor();
  if (reinterpret_cast<std::uintptr_t>(values_ptr) % alignof(double) != 0) {
    return corrupt("matrix section is misaligned");
  }
  PRIVELET_RETURN_IF_ERROR(r.Skip(h.cells * sizeof(double), "matrix values"));
  mapped.values_ = {reinterpret_cast<const double*>(values_ptr), h.cells};

  std::uint8_t has_table = 0;
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&has_table, "table flag"));
  if (has_table > 1) return corrupt("bad table flag");
  if (has_table == 1) {
    TableSectionV2 section;
    PRIVELET_RETURN_IF_ERROR(ReadTableSectionHeaderV2(r, h.cells, &section));
    const std::byte* table_ptr = r.cursor();
    PRIVELET_RETURN_IF_ERROR(r.Skip(section.payload, "prefix-table entries"));
    if (section.adoptable() &&
        reinterpret_cast<std::uintptr_t>(table_ptr) % alignof(double) == 0) {
      mapped.table_ = {reinterpret_cast<const double*>(table_ptr), h.cells};
    }
    // Not adoptable: the section stays unused and the caller rebuilds the
    // table from matrix_values() — deterministically identical.
  }
  if (r.remaining() != 0) {
    return corrupt("trailing bytes after the table section");
  }

  mapped.file_ = std::move(file);
  mapped.schema_ = std::move(h.schema);
  mapped.mechanism_ = std::move(h.mechanism);
  mapped.epsilon_ = h.epsilon;
  mapped.seed_ = h.seed;
  mapped.plan_ = std::move(h.plan);
  mapped.dims_ = std::move(h.dims);
  return mapped;
}

}  // namespace privelet::storage
