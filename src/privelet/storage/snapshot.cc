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

#include <fcntl.h>
#include <unistd.h>

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
  const unsigned long pid = static_cast<unsigned long>(::getpid());
  return path + ".tmp." + std::to_string(pid) + "." +
         std::to_string(counter.fetch_add(1));
}

// Flushes a closed file's data to stable storage.
Status SyncFile(const std::string& path) {
  const int fd = common::OpenRetry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot reopen '" + path + "' to sync it");
  }
  const Status synced = common::FsyncRetry(fd, path);
  common::CloseFd(fd);
  return synced;
}

// Makes the rename itself durable by syncing the containing directory.
// Best effort: some filesystems refuse directory fsync; the file's data
// is already durable by then.
void SyncParentDirectory(const std::string& path) {
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
// Reader over a mapped snapshot's payload (everything before the trailing
// CRC). The CRC is verified once over the whole mapping before parsing
// starts, so this reader only bounds-checks; Skip is O(1), which is what
// makes every parse O(header) after the checksum pass.
class MemReader {
 public:
  MemReader(const std::string& path, std::span<const std::byte> payload)
      : path_(path), payload_(payload) {}

  std::uint64_t remaining() const { return payload_.size() - pos_; }
  /// Bytes consumed so far (== the current file offset).
  std::uint64_t offset() const { return pos_; }

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
  const std::string& path_;
  std::span<const std::byte> payload_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Schema section.

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

Result<data::Hierarchy> ReadHierarchy(MemReader& r) {
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

Result<data::Schema> ReadSchema(MemReader& r) {
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

Status SkipReservedFields(MemReader& r) {
  std::uint8_t engine = 0;
  std::uint64_t panel_width = 0;
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&engine, "line engine"));
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&panel_width, "panel width"));
  if (engine > 1) return r.Corrupt("unknown line engine");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Matrix and table sections.

Result<std::vector<std::size_t>> ReadDims(MemReader& r,
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

/// v2+ only: consumes the zero padding bringing the reader to the next
/// section-aligned offset. Nonzero padding is rejected so the byte format
/// stays canonical (identical releases <=> identical files).
Status ConsumeSectionPadding(MemReader& r) {
  const std::size_t pad = PadBytes(r.offset());
  if (pad == 0) return Status::OK();
  unsigned char buf[kSectionAlignment];
  PRIVELET_RETURN_IF_ERROR(r.ReadRaw(buf, pad, "section padding"));
  for (std::size_t i = 0; i < pad; ++i) {
    if (buf[i] != 0) return r.Corrupt("nonzero section padding");
  }
  return Status::OK();
}

// Everything between the version and the matrix section: provenance,
// plan (v3), reserved fields, schema and dims. Identical in every version.
Status ParseHeader(MemReader& r, SnapshotInfo* info) {
  PRIVELET_RETURN_IF_ERROR(
      r.ReadString(&info->mechanism, kMaxNameLen, "mechanism id"));
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&info->epsilon, "epsilon"));
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&info->seed, "seed"));
  if (info->version >= kVersionPlanned) {
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
    info->plan = std::move(plan);
  }
  PRIVELET_RETURN_IF_ERROR(SkipReservedFields(r));
  PRIVELET_ASSIGN_OR_RETURN(info->schema, ReadSchema(r));
  PRIVELET_ASSIGN_OR_RETURN(info->dims, ReadDims(r, info->schema));
  // Overflow-checked by ReadDims (and bounded by the file size).
  info->num_cells = 1;
  for (std::size_t d : info->dims) info->num_cells *= d;
  return Status::OK();
}

// The payload sections after the header: v2+ padding, the matrix values,
// then the optional table section, whose entries are adopted only when
// they are binary64 — (mant_dig, accum_bytes) = (53, 8). The v1
// double-double entries and the x87 (64, 16) entries written before the
// table became double are located but left unused; loaders rebuild the
// table from the matrix, which the determinism contract guarantees equals
// a fresh build bit for bit.
Status ParseSections(MemReader& r, SnapshotInfo* info) {
  if (info->version >= kVersion) {
    PRIVELET_RETURN_IF_ERROR(ConsumeSectionPadding(r));
  }
  info->values_offset = r.offset();
  info->values_bytes = info->num_cells * sizeof(double);
  PRIVELET_RETURN_IF_ERROR(r.Skip(info->values_bytes, "matrix values"));

  std::uint8_t has_table = 0;
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&has_table, "table flag"));
  if (has_table > 1) return r.Corrupt("bad table flag");
  info->has_prefix_table = has_table == 1;
  if (!info->has_prefix_table) return Status::OK();
  PRIVELET_RETURN_IF_ERROR(
      r.ReadPod(&info->table_mant_dig, "table accumulator"));
  if (info->version == kVersionLegacy) {
    // v1: a u8 exactness flag, then unpadded (f64 hi, f64 lo) entries.
    std::uint8_t exact = 0;
    PRIVELET_RETURN_IF_ERROR(r.ReadPod(&exact, "table exactness"));
    info->table_accum_bytes = 2 * sizeof(double);
  } else {
    PRIVELET_RETURN_IF_ERROR(
        r.ReadPod(&info->table_accum_bytes, "table accumulator width"));
    if (info->table_accum_bytes == 0 || info->table_accum_bytes > 64) {
      return r.Corrupt("table accumulator width out of bounds");
    }
    PRIVELET_RETURN_IF_ERROR(ConsumeSectionPadding(r));
  }
  std::size_t table_bytes = 0;
  if (!CheckedMul(info->num_cells, info->table_accum_bytes, &table_bytes) ||
      table_bytes > r.remaining()) {
    return r.Corrupt("prefix-table payload exceeds the file size");
  }
  info->table_offset = r.offset();
  info->table_bytes = table_bytes;
  info->table_adoptable = info->table_mant_dig == kTableMantDig &&
                          info->table_accum_bytes == kTableAccumBytes;
  return r.Skip(table_bytes, "prefix-table entries");
}

// A snapshot file mapped read-only and parsed: the one read path behind
// ReadSnapshot, InspectSnapshot and MappedSnapshot::Open.
struct ParsedMapping {
  common::MappedFile file;
  SnapshotInfo info;

  /// The mapped byte at file offset `offset`.
  const std::byte* at(std::uint64_t offset) const {
    return file.bytes().data() + offset;
  }
};

// Maps `path`, checks the magic and version, checks the CRC once over the
// whole mapping, then parses the header and locates the payload sections
// without touching them — O(header) after the checksum pass.
Result<ParsedMapping> MapAndParse(const std::string& path) {
  PRIVELET_ASSIGN_OR_RETURN(common::MappedFile file,
                            common::MappedFile::Open(path));
  const std::span<const std::byte> bytes = file.bytes();
  if (bytes.size() < sizeof(kMagic) + sizeof(std::uint32_t) * 2) {
    return Status::InvalidArgument("snapshot '" + path +
                                   "': file too short to be a snapshot");
  }
  MemReader r(path, bytes.first(bytes.size() - sizeof(std::uint32_t)));
  SnapshotInfo info;
  info.file_bytes = bytes.size();
  char magic[sizeof(kMagic)];
  PRIVELET_RETURN_IF_ERROR(r.ReadRaw(magic, sizeof(magic), "magic"));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a PVLS release snapshot");
  }
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&info.version, "version"));
  if (info.version != kVersionLegacy && info.version != kVersion &&
      info.version != kVersionPlanned) {
    return r.Corrupt("unsupported snapshot version");
  }
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - sizeof(stored),
              sizeof(stored));
  if (stored != Crc32(bytes.data(), bytes.size() - sizeof(stored))) {
    return r.Corrupt("CRC mismatch (file corrupted)");
  }
  PRIVELET_RETURN_IF_ERROR(ParseHeader(r, &info));
  PRIVELET_RETURN_IF_ERROR(ParseSections(r, &info));
  if (r.remaining() != 0) {
    return r.Corrupt("trailing bytes after the table section");
  }
  return ParsedMapping{std::move(file), std::move(info)};
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
  PRIVELET_ASSIGN_OR_RETURN(ParsedMapping parsed, MapAndParse(path));
  SnapshotInfo& info = parsed.info;
  // Copied out, not viewed: the snapshot owns its payloads past the
  // mapping, and v1 sections are unaligned.
  ReleaseSnapshot snapshot;
  snapshot.published = matrix::FrequencyMatrix(info.dims);
  std::memcpy(snapshot.published.values().data(),
              parsed.at(info.values_offset), info.values_bytes);
  if (info.table_adoptable) {
    auto sums = std::make_unique_for_overwrite<double[]>(info.num_cells);
    std::memcpy(sums.get(), parsed.at(info.table_offset), info.table_bytes);
    snapshot.prefix.emplace(info.dims, std::move(sums));
  }
  snapshot.schema = std::move(info.schema);
  snapshot.mechanism = std::move(info.mechanism);
  snapshot.epsilon = info.epsilon;
  snapshot.seed = info.seed;
  snapshot.plan = std::move(info.plan);
  return snapshot;
}

Result<SnapshotInfo> InspectSnapshot(const std::string& path) {
  PRIVELET_ASSIGN_OR_RETURN(ParsedMapping parsed, MapAndParse(path));
  return std::move(parsed.info);
}

Result<MappedSnapshot> MappedSnapshot::Open(const std::string& path) {
  PRIVELET_ASSIGN_OR_RETURN(ParsedMapping parsed, MapAndParse(path));
  SnapshotInfo& info = parsed.info;
  MappedSnapshot mapped;
  const std::byte* values = parsed.at(info.values_offset);
  if (reinterpret_cast<std::uintptr_t>(values) % alignof(double) == 0) {
    mapped.values_ = {reinterpret_cast<const double*>(values),
                      info.num_cells};
  } else {
    // A v1 file: no section padding, so the values are copied out once.
    mapped.owned_values_ =
        std::make_unique_for_overwrite<double[]>(info.num_cells);
    std::memcpy(mapped.owned_values_.get(), values, info.values_bytes);
    mapped.values_ = {mapped.owned_values_.get(), info.num_cells};
  }
  // Adoptable tables exist only in v2+, whose sections start on 64-byte
  // file offsets. Any other table stays unused and the caller rebuilds it
  // from matrix_values().
  if (info.table_adoptable) {
    mapped.table_ = {
        reinterpret_cast<const double*>(parsed.at(info.table_offset)),
        info.num_cells};
  }
  mapped.file_ = std::move(parsed.file);
  mapped.schema_ = std::move(info.schema);
  mapped.mechanism_ = std::move(info.mechanism);
  mapped.epsilon_ = info.epsilon;
  mapped.seed_ = info.seed;
  mapped.plan_ = std::move(info.plan);
  mapped.dims_ = std::move(info.dims);
  return mapped;
}

}  // namespace privelet::storage
