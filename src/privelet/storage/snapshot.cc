#include "privelet/storage/snapshot.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "privelet/common/io_util.h"
#include "privelet/data/attribute.h"
#include "privelet/data/hierarchy.h"
#include "privelet/storage/crc32.h"

namespace privelet::storage {

namespace {

constexpr char kMagic[4] = {'P', 'V', 'L', 'S'};
constexpr std::uint32_t kVersion = 4;

// The table starts on this file offset multiple so a page-aligned memory
// mapping yields a naturally aligned array — the precondition for
// MappedSnapshot's zero-copy span.
constexpr std::size_t kSectionAlignment = 64;

// Structural limits. Generous against every real release, tight enough
// that a corrupt length field cannot drive a pathological allocation on
// its own (allocations are additionally bounded by the bytes actually
// remaining in the file).
constexpr std::size_t kMaxNameLen = 4096;
constexpr std::size_t kMaxAttributes = 256;
constexpr std::size_t kMaxDims = 64;

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

// Everything ahead of the table is a few hundred bytes: the writer
// assembles it here and hands it to the file in one write.
class HeaderBuilder {
 public:
  template <typename T>
  void WritePod(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes_.append(reinterpret_cast<const char*>(&value), sizeof(value));
  }

  void WriteString(std::string_view s) {
    too_long_ = too_long_ || s.size() > kMaxNameLen;
    WritePod(static_cast<std::uint16_t>(s.size()));
    bytes_.append(s);
  }

  /// Zero-fills up to the next kSectionAlignment file offset.
  void PadToSectionAlignment() { bytes_.append(PadBytes(bytes_.size()), '\0'); }

  /// Whether any string exceeded the readers' kMaxNameLen.
  bool too_long() const { return too_long_; }
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
  bool too_long_ = false;
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

  Status Skip(std::size_t len, const char* what) {
    if (len > remaining()) {
      return Corrupt(std::string("truncated while reading ") + what);
    }
    pos_ += len;
    return Status::OK();
  }

  Status ReadRaw(void* dst, std::size_t len, const char* what) {
    const std::byte* src = payload_.data() + pos_;
    PRIVELET_RETURN_IF_ERROR(Skip(len, what));
    std::memcpy(dst, src, len);
    return Status::OK();
  }

  template <typename T>
  Status ReadPod(T* dst, const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadRaw(dst, sizeof(T), what);
  }

  /// A u16-length-prefixed string of at most kMaxNameLen bytes.
  Status ReadString(std::string* dst, const char* what) {
    std::uint16_t len = 0;
    PRIVELET_RETURN_IF_ERROR(ReadPod(&len, what));
    if (len > kMaxNameLen) {
      return Corrupt(std::string(what) + " length out of bounds");
    }
    dst->resize(len);
    return ReadRaw(dst->data(), len, what);
  }

 private:
  const std::string& path_;
  std::span<const std::byte> payload_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Schema section.

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

void WriteSchema(HeaderBuilder& w, const data::Schema& schema) {
  w.WritePod(static_cast<std::uint32_t>(schema.num_attributes()));
  for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
    const data::Attribute& attr = schema.attribute(a);
    w.WriteString(attr.name());
    w.WritePod(static_cast<std::uint8_t>(attr.is_nominal() ? 1 : 0));
    if (!attr.is_nominal()) {
      w.WritePod(static_cast<std::uint64_t>(attr.domain_size()));
      continue;
    }
    const data::Hierarchy& h = attr.hierarchy();
    w.WritePod(static_cast<std::uint64_t>(h.num_nodes()));
    for (std::size_t id = 0; id < h.num_nodes(); ++id) {
      w.WritePod(static_cast<std::uint32_t>(h.fanout(id)));
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
    PRIVELET_RETURN_IF_ERROR(r.ReadString(&name, "attribute name"));
    if (name.empty()) return r.Corrupt("empty attribute name");
    std::uint8_t kind = 0;
    PRIVELET_RETURN_IF_ERROR(r.ReadPod(&kind, "attribute kind"));
    if (kind == 0) {
      std::uint64_t domain = 0;
      PRIVELET_RETURN_IF_ERROR(r.ReadPod(&domain, "ordinal domain size"));
      // Even a legitimate domain is bounded by the table stored inline
      // later; per-attribute, the file must at least hold one f64 per
      // domain value.
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
// Dims, plan and table sections.

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
    // The table's byte length must be representable too.
    std::size_t bytes = 0;
    if (d != dim || !CheckedMul(cells, d, &cells) ||
        !CheckedMul(cells, sizeof(double), &bytes)) {
      return r.Corrupt("dimension product overflows");
    }
  }
  if (dims != schema.DomainSizes()) {
    return r.Corrupt("table dims do not match the schema");
  }
  return dims;
}

void WritePlan(HeaderBuilder& w, const query::PlanRecord* plan) {
  w.WritePod(static_cast<std::uint8_t>(plan != nullptr ? 1 : 0));
  if (plan == nullptr) return;
  w.WriteString(plan->chosen);
  w.WritePod(plan->predicted_variance);
  w.WriteString(plan->runner_up);
  w.WritePod(plan->runner_up_variance);
  w.WritePod(plan->workload_queries);
}

Result<std::optional<query::PlanRecord>> ReadPlan(MemReader& r) {
  std::uint8_t has_plan = 0;
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&has_plan, "plan flag"));
  if (has_plan > 1) return r.Corrupt("bad plan flag");
  if (has_plan == 0) return std::optional<query::PlanRecord>();
  query::PlanRecord plan;
  PRIVELET_RETURN_IF_ERROR(r.ReadString(&plan.chosen, "plan chosen id"));
  if (plan.chosen.empty()) {
    return r.Corrupt("planned snapshot without a chosen mechanism");
  }
  PRIVELET_RETURN_IF_ERROR(
      r.ReadPod(&plan.predicted_variance, "plan predicted variance"));
  PRIVELET_RETURN_IF_ERROR(r.ReadString(&plan.runner_up, "plan runner-up id"));
  PRIVELET_RETURN_IF_ERROR(
      r.ReadPod(&plan.runner_up_variance, "plan runner-up variance"));
  PRIVELET_RETURN_IF_ERROR(
      r.ReadPod(&plan.workload_queries, "plan workload size"));
  return std::optional<query::PlanRecord>(std::move(plan));
}

// Everything after the version: provenance, schema, dims, plan, padding,
// and the table, which is located but not read. Nonzero padding is
// rejected so the byte format stays canonical (identical releases <=>
// identical files).
Status ParseBody(MemReader& r, SnapshotInfo* info) {
  PRIVELET_RETURN_IF_ERROR(r.ReadString(&info->mechanism, "mechanism id"));
  PRIVELET_RETURN_IF_ERROR(r.ReadPod(&info->epsilon, "epsilon"));
  PRIVELET_ASSIGN_OR_RETURN(info->schema, ReadSchema(r));
  PRIVELET_ASSIGN_OR_RETURN(info->dims, ReadDims(r, info->schema));
  // Overflow-checked by ReadDims.
  info->num_cells = 1;
  for (std::size_t d : info->dims) info->num_cells *= d;
  PRIVELET_ASSIGN_OR_RETURN(info->plan, ReadPlan(r));
  for (std::size_t pad = PadBytes(r.offset()); pad > 0; --pad) {
    std::uint8_t byte = 0;
    PRIVELET_RETURN_IF_ERROR(r.ReadPod(&byte, "section padding"));
    if (byte != 0) return r.Corrupt("nonzero section padding");
  }
  info->table_offset = r.offset();
  info->table_bytes = info->num_cells * sizeof(double);
  PRIVELET_RETURN_IF_ERROR(r.Skip(info->table_bytes, "prefix-table entries"));
  if (r.remaining() != 0) {
    return r.Corrupt("trailing bytes after the table section");
  }
  return Status::OK();
}

// A snapshot file mapped read-only and parsed: the one read path behind
// InspectSnapshot and MappedSnapshot::Open.
struct ParsedMapping {
  common::MappedFile file;
  SnapshotInfo info;
};

// Maps `path`, checks the magic and version, checks the CRC once over the
// whole mapping, then parses the header and locates the table without
// touching it — O(header) after the checksum pass.
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
  if (info.version >= 1 && info.version < kVersion) {
    std::string message = "PVLS v";
    message += std::to_string(info.version);
    message += " is no longer supported; re-publish the release";
    return r.Corrupt(message);
  }
  if (info.version != kVersion) {
    return r.Corrupt("unsupported snapshot version");
  }
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - sizeof(stored),
              sizeof(stored));
  if (stored != Crc32(bytes.data(), bytes.size() - sizeof(stored))) {
    return r.Corrupt("CRC mismatch (file corrupted)");
  }
  PRIVELET_RETURN_IF_ERROR(ParseBody(r, &info));
  return ParsedMapping{std::move(file), std::move(info)};
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotStreamWriter. Every byte goes through the running CRC; Finish()
// appends the checksum. No staging buffer exists for the table — it is
// written straight from the caller's memory, so chunking cannot change
// the output.
//
// The stream targets a unique temp file next to `path` and Finish()
// renames it into place: serving processes keep snapshots memory-mapped
// for long periods, and truncating a live mapping's file in place would
// SIGBUS its readers — the rename swaps the directory entry while
// existing mappings keep the old inode. A failed write leaves the
// previous snapshot untouched.

struct SnapshotStreamWriter::Impl {
  Impl(const std::string& dest, std::size_t cells)
      : path(dest),
        tmp_path(TempSnapshotPath(dest)),
        fd(common::OpenRetry(tmp_path.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666)),
        expected_cells(cells) {}

  ~Impl() {
    // Finish() not reached (validation error in the caller) or failed:
    // drop the partial temp file.
    if (fd < 0) return;
    common::CloseFd(fd);
    if (!finished) std::remove(tmp_path.c_str());
  }

  Status Write(const void* data, std::size_t len) {
    crc = Crc32Update(crc, data, len);
    return common::WriteFull(fd, data, len, tmp_path.c_str());
  }

  std::string path;
  std::string tmp_path;
  int fd;
  bool finished = false;
  std::uint32_t crc = kCrc32Init;
  std::size_t expected_cells;
  std::size_t appended = 0;
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
  if (header.plan != nullptr && header.plan->chosen.empty()) {
    return Status::InvalidArgument("plan record without a chosen mechanism");
  }
  const std::vector<std::size_t> dims = header.schema->DomainSizes();
  std::size_t cells = 1;
  for (const std::size_t d : dims) {
    if (!CheckedMul(cells, d, &cells)) {
      return Status::InvalidArgument("schema dimension product overflows");
    }
  }

  HeaderBuilder w;
  for (const char c : kMagic) w.WritePod(c);
  w.WritePod(kVersion);
  w.WriteString(header.mechanism);
  w.WritePod(header.epsilon);
  WriteSchema(w, *header.schema);
  w.WritePod(static_cast<std::uint32_t>(dims.size()));
  for (const std::size_t d : dims) {
    w.WritePod(static_cast<std::uint64_t>(d));
  }
  WritePlan(w, header.plan);
  w.PadToSectionAlignment();
  if (w.too_long()) {
    return Status::InvalidArgument(
        "mechanism, attribute or plan id longer than 4096 bytes");
  }

  auto impl = std::make_unique<Impl>(path, cells);
  if (impl->fd < 0) {
    return Status::IOError("cannot open '" + impl->tmp_path +
                           "' for writing: " + common::ErrnoMessage());
  }
  PRIVELET_RETURN_IF_ERROR(impl->Write(w.bytes().data(), w.bytes().size()));
  impl_ = std::move(impl);
  return Status::OK();
}

Status SnapshotStreamWriter::AppendTableEntries(
    std::span<const double> entries) {
  if (impl_ == nullptr) {
    return Status::FailedPrecondition("snapshot stream not begun");
  }
  if (entries.size() > impl_->expected_cells - impl_->appended) {
    return Status::InvalidArgument(
        "more table entries than the schema's cell count");
  }
  impl_->appended += entries.size();
  const Status written =
      impl_->Write(entries.data(), entries.size() * sizeof(double));
  if (!written.ok()) impl_.reset();  // spent; drops the temp file
  return written;
}

Status SnapshotStreamWriter::Finish() {
  if (impl_ == nullptr) {
    return Status::FailedPrecondition("snapshot stream not begun");
  }
  // Spent either way; destroying `impl` drops the temp file on failure.
  const std::unique_ptr<Impl> impl = std::move(impl_);
  if (impl->appended != impl->expected_cells) {
    return Status::InvalidArgument("prefix-table section incomplete at Finish");
  }
  const std::uint32_t crc = Crc32Finish(impl->crc);
  PRIVELET_RETURN_IF_ERROR(
      common::WriteFull(impl->fd, &crc, sizeof(crc), impl->tmp_path.c_str()));
  // Replace semantics must survive a crash: the temp file's data has to be
  // durable before the rename may be, or a power cut can persist the
  // rename over still-unwritten blocks and destroy the old snapshot.
  PRIVELET_RETURN_IF_ERROR(common::FsyncRetry(impl->fd, impl->tmp_path));
  if (std::rename(impl->tmp_path.c_str(), impl->path.c_str()) != 0) {
    return Status::IOError("cannot move '" + impl->tmp_path +
                           "' into place at '" + impl->path + "'");
  }
  impl->finished = true;
  SyncParentDirectory(impl->path);  // best effort; the data itself is durable
  return Status::OK();
}

Result<SnapshotInfo> InspectSnapshot(const std::string& path) {
  PRIVELET_ASSIGN_OR_RETURN(ParsedMapping parsed, MapAndParse(path));
  return std::move(parsed.info);
}

Result<MappedSnapshot> MappedSnapshot::Open(const std::string& path) {
  PRIVELET_ASSIGN_OR_RETURN(ParsedMapping parsed, MapAndParse(path));
  SnapshotInfo& info = parsed.info;
  MappedSnapshot mapped;
  mapped.table_ = {reinterpret_cast<const double*>(parsed.file.bytes().data() +
                                                   info.table_offset),
                   info.num_cells};
  mapped.file_ = std::move(parsed.file);
  mapped.schema_ = std::move(info.schema);
  mapped.mechanism_ = std::move(info.mechanism);
  mapped.epsilon_ = info.epsilon;
  mapped.plan_ = std::move(info.plan);
  mapped.dims_ = std::move(info.dims);
  return mapped;
}

}  // namespace privelet::storage
