// Release snapshots (storage/snapshot.h): the PVLS round trip must be
// lossless — a session restored from a snapshot answers a 1k-query
// workload bit-identically to the session that produced it, with or
// without the stored prefix table — and corrupt, truncated, or absurd
// files must come back as Status errors, never crashes or pathological
// allocations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "privelet/common/thread_pool.h"
#include "privelet/data/attribute.h"
#include "privelet/data/hierarchy.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/workload.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/storage/crc32.h"
#include "privelet/storage/session_io.h"
#include "privelet/storage/snapshot.h"

namespace privelet {
namespace {

data::Schema TestSchema() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Age", 64));
  attrs.push_back(data::Attribute::Nominal(
      "Occ", data::Hierarchy::FromGroupSizes({2, 3, 4}).value()));
  attrs.push_back(data::Attribute::Ordinal("Income", 32));
  return data::Schema(std::move(attrs));
}

matrix::FrequencyMatrix RandomMatrix(const data::Schema& schema,
                                     std::uint64_t seed) {
  matrix::FrequencyMatrix m(schema.DomainSizes());
  rng::Xoshiro256pp gen(seed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 25));
  }
  return m;
}

query::PublishingSession PublishTestSession(const data::Schema& schema,
                                            common::ThreadPool* pool) {
  mechanism::PriveletPlusMechanism mech({"Occ"});
  auto session = query::PublishingSession::Publish(
      schema, mech, RandomMatrix(schema, 3), /*epsilon=*/0.9, /*seed=*/41,
      pool);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return *std::move(session);
}

std::vector<query::RangeQuery> TestWorkload(const data::Schema& schema,
                                            std::size_t num_queries) {
  query::WorkloadOptions options;
  options.num_queries = num_queries;
  options.seed = 17;
  auto workload = query::GenerateWorkload(schema, options);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  return *std::move(workload);
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out) << path;
}

// ---------------------------------------------------------------------------
// Round trips.

TEST(SnapshotTest, InMemoryRoundTripAnswers1kWorkloadBitIdentically) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession original =
      PublishTestSession(schema, nullptr);
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 1000);
  const std::vector<double> expected = original.AnswerAll(workload);

  auto restored =
      query::PublishingSession::FromSnapshot(original.ToSnapshot());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(expected, restored->AnswerAll(workload));
  EXPECT_EQ(original.metadata().mechanism, restored->metadata().mechanism);
  EXPECT_EQ(original.metadata().epsilon, restored->metadata().epsilon);
  EXPECT_EQ(original.metadata().seed, restored->metadata().seed);
}

TEST(SnapshotTest, FileRoundTripAnswers1kWorkloadBitIdentically) {
  const data::Schema schema = TestSchema();
  common::ThreadPool pool(4);
  const query::PublishingSession original = PublishTestSession(schema, &pool);
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 1000);
  const std::vector<double> expected = original.AnswerAll(workload);

  const std::string path = TempPath("roundtrip.pvls");
  ASSERT_TRUE(storage::SaveSession(path, original).ok());
  auto loaded = storage::LoadSession(path, &pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(expected, loaded->AnswerAll(workload));
  EXPECT_TRUE(matrix::ValuesEqual(original.published().values(),
                                  loaded->published().values()));
  EXPECT_EQ("Privelet+{Occ}", loaded->metadata().mechanism);
  EXPECT_EQ(0.9, loaded->metadata().epsilon);
  EXPECT_EQ(std::uint64_t{41}, loaded->metadata().seed);
}

TEST(SnapshotTest, StoredPrefixTableIsAdoptedVerbatim) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession original =
      PublishTestSession(schema, nullptr);
  const std::string path = TempPath("table.pvls");
  ASSERT_TRUE(storage::SaveSession(path, original).ok());

  auto snapshot = storage::ReadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_TRUE(snapshot->prefix.has_value());
  const auto original_sums = original.prefix_table().raw_sums();
  const auto loaded_sums = snapshot->prefix->raw_sums();
  ASSERT_EQ(original_sums.size(), loaded_sums.size());
  for (std::size_t i = 0; i < original_sums.size(); ++i) {
    ASSERT_EQ(original_sums[i], loaded_sums[i]) << "entry " << i;
  }
}

TEST(SnapshotTest, SnapshotWithoutTableRebuildsBitIdentically) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession original =
      PublishTestSession(schema, nullptr);
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 1000);
  const std::vector<double> expected = original.AnswerAll(workload);

  storage::ReleaseSnapshot snapshot = original.ToSnapshot();
  snapshot.prefix.reset();
  const std::string path = TempPath("notable.pvls");
  ASSERT_TRUE(storage::WriteSnapshot(path, snapshot).ok());

  auto info = storage::InspectSnapshot(path);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->has_prefix_table);

  common::ThreadPool pool(2);
  auto loaded = storage::LoadSession(path, &pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(expected, loaded->AnswerAll(workload));
}

TEST(SnapshotTest, ReadSnapshotPreservesSchema) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession session = PublishTestSession(schema, nullptr);
  const std::string path = TempPath("schema.pvls");
  ASSERT_TRUE(storage::SaveSession(path, session).ok());

  auto snapshot = storage::ReadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_EQ(schema.num_attributes(), snapshot->schema.num_attributes());
  for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
    const data::Attribute& want = schema.attribute(a);
    const data::Attribute& got = snapshot->schema.attribute(a);
    EXPECT_EQ(want.name(), got.name());
    EXPECT_EQ(want.kind(), got.kind());
    EXPECT_EQ(want.domain_size(), got.domain_size());
  }
  // The grouped hierarchy must survive structurally: same node count,
  // same per-node fanout and leaf ranges, and it must re-validate.
  const data::Hierarchy& want = schema.attribute(1).hierarchy();
  const data::Hierarchy& got = snapshot->schema.attribute(1).hierarchy();
  ASSERT_EQ(want.num_nodes(), got.num_nodes());
  EXPECT_EQ(want.height(), got.height());
  for (std::size_t id = 0; id < want.num_nodes(); ++id) {
    EXPECT_EQ(want.fanout(id), got.fanout(id)) << "node " << id;
    EXPECT_EQ(want.node(id).leaf_begin, got.node(id).leaf_begin);
    EXPECT_EQ(want.node(id).leaf_end, got.node(id).leaf_end);
  }
  EXPECT_TRUE(got.Validate().ok());
}

// Files written when the header's reserved fields still selected a line
// engine (`--engine naive --tile-lines 17` wrote 1 | 17) load through
// both readers and serve exactly what a fresh build over the same matrix
// serves; an engine byte no writer ever produced stays corrupt.
TEST(SnapshotTest, LegacyEngineFieldsStillLoad) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 6));
  attrs.push_back(data::Attribute::Ordinal("B", 5));
  const data::Schema schema(std::move(attrs));
  mechanism::PriveletMechanism mech;
  auto session = query::PublishingSession::Publish(
      schema, mech, RandomMatrix(schema, 5), /*epsilon=*/0.9, /*seed=*/41);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const std::string path = TempPath("legacy_engine.pvls");
  ASSERT_TRUE(storage::SaveSession(path, *session).ok());
  const auto fresh = query::PublishingSession::FromMatrix(
      schema, session->published());
  ASSERT_TRUE(fresh.ok());

  // magic, version, mechanism id, epsilon, seed; then the reserved fields.
  const std::size_t engine_at = 4 + 4 + 2 + mech.name().size() + 8 + 8;
  const std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(std::uint8_t{0}, static_cast<std::uint8_t>(bytes[engine_at]));
  const auto patched = [&](std::uint8_t engine) {
    std::string out = bytes.substr(0, bytes.size() - 4);
    out[engine_at] = static_cast<char>(engine);
    const std::uint64_t tile = 17;
    std::memcpy(out.data() + engine_at + 1, &tile, sizeof(tile));
    const std::uint32_t crc = storage::Crc32(out.data(), out.size());
    out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    return out;
  };

  WriteFileBytes(path, patched(1));
  auto loaded = storage::LoadSession(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto mapped = storage::MapSession(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  for (std::size_t a_lo = 0; a_lo < 6; ++a_lo) {
    for (std::size_t a_hi = a_lo; a_hi < 6; ++a_hi) {
      for (std::size_t b_lo = 0; b_lo < 5; ++b_lo) {
        for (std::size_t b_hi = b_lo; b_hi < 5; ++b_hi) {
          query::RangeQuery q(2);
          ASSERT_TRUE(q.SetRange(schema, 0, a_lo, a_hi).ok());
          ASSERT_TRUE(q.SetRange(schema, 1, b_lo, b_hi).ok());
          const double want = fresh->Answer(q);
          EXPECT_EQ(want, loaded->Answer(q));
          EXPECT_EQ(want, mapped->Answer(q));
        }
      }
    }
  }

  WriteFileBytes(path, patched(2));
  EXPECT_FALSE(storage::LoadSession(path).ok());
  EXPECT_FALSE(storage::MapSession(path).ok());
  EXPECT_FALSE(storage::InspectSnapshot(path).ok());
}

// ---------------------------------------------------------------------------
// Corruption and truncation.

TEST(SnapshotTest, EveryTruncationPrefixIsRejectedWithoutCrashing) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession session = PublishTestSession(schema, nullptr);
  const std::string path = TempPath("full.pvls");
  ASSERT_TRUE(storage::SaveSession(path, session).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 100u);

  const std::string cut = TempPath("cut.pvls");
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{8}, std::size_t{40},
        bytes.size() / 2, bytes.size() - 5, bytes.size() - 1}) {
    WriteFileBytes(cut, bytes.substr(0, keep));
    auto snapshot = storage::ReadSnapshot(cut);
    EXPECT_FALSE(snapshot.ok()) << "prefix of " << keep << " bytes parsed";
    auto info = storage::InspectSnapshot(cut);
    EXPECT_FALSE(info.ok()) << "prefix of " << keep << " bytes inspected";
  }
}

TEST(SnapshotTest, FlippedBytesAreRejected) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession session = PublishTestSession(schema, nullptr);
  const std::string path = TempPath("flip_src.pvls");
  ASSERT_TRUE(storage::SaveSession(path, session).ok());
  const std::string bytes = ReadFileBytes(path);

  const std::string flip = TempPath("flip.pvls");
  // Offsets spread over magic, header, matrix payload, table payload, and
  // the trailing CRC itself.
  for (const std::size_t offset :
       {std::size_t{0}, std::size_t{9}, std::size_t{60}, bytes.size() / 3,
        2 * bytes.size() / 3, bytes.size() - 2}) {
    std::string corrupted = bytes;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
    WriteFileBytes(flip, corrupted);
    auto snapshot = storage::ReadSnapshot(flip);
    EXPECT_FALSE(snapshot.ok()) << "flip at " << offset << " parsed";
  }
}

TEST(SnapshotTest, TrailingBytesAreRejected) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession session = PublishTestSession(schema, nullptr);
  const std::string path = TempPath("trail_src.pvls");
  ASSERT_TRUE(storage::SaveSession(path, session).ok());
  const std::string padded = TempPath("trail.pvls");
  WriteFileBytes(padded, ReadFileBytes(path) + std::string(6, '\0'));
  EXPECT_FALSE(storage::ReadSnapshot(padded).ok());
}

TEST(SnapshotTest, MissingFileIsAnIOError) {
  auto snapshot = storage::ReadSnapshot(TempPath("does_not_exist.pvls"));
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(StatusCode::kIOError, snapshot.status().code());
}

// ---------------------------------------------------------------------------
// CRC-32: the sliced kernel must agree bit for bit with the textbook
// bit-at-a-time definition at every length, alignment and stream split,
// or every stored snapshot stops verifying.

std::uint32_t BitwiseCrc32(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n > 0; --n, ++p) {
    c ^= *p;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

std::vector<unsigned char> RandomBytes(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256pp gen(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(gen.Next() >> 56);
  return bytes;
}

TEST(Crc32Test, KnownAnswer) {
  EXPECT_EQ(storage::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(storage::Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, EveryLengthAtEveryOffsetMatchesBitwiseOracle) {
  const auto bytes = RandomBytes(16 + 64, 5);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(storage::Crc32(bytes.data() + offset, len),
                BitwiseCrc32(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, StreamedUpdateSplitAtEveryPointEqualsOneShot) {
  const auto bytes = RandomBytes(4096, 6);
  const std::uint32_t whole = storage::Crc32(bytes.data(), bytes.size());
  EXPECT_EQ(whole, BitwiseCrc32(bytes.data(), bytes.size()));
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    std::uint32_t state =
        storage::Crc32Update(storage::kCrc32Init, bytes.data(), split);
    state = storage::Crc32Update(state, bytes.data() + split,
                                 bytes.size() - split);
    ASSERT_EQ(storage::Crc32Finish(state), whole) << "split at " << split;
  }
}

// ---------------------------------------------------------------------------
// Handcrafted files: lock the byte format and exercise the defensive
// checks that a writer can never produce (overflowing dims, payloads
// larger than the file).

class ByteBuilder {
 public:
  template <typename T>
  ByteBuilder& Pod(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const char* p = reinterpret_cast<const char*>(&value);
    bytes_.append(p, sizeof(value));
    return *this;
  }
  ByteBuilder& Str(const std::string& s) {
    Pod(static_cast<std::uint16_t>(s.size()));
    bytes_ += s;
    return *this;
  }
  ByteBuilder& Raw(const void* p, std::size_t n) {
    bytes_.append(static_cast<const char*>(p), n);
    return *this;
  }
  /// Zero-fills to the next 64-byte offset (a v2 section boundary).
  ByteBuilder& PadTo64() {
    bytes_.append((64 - bytes_.size() % 64) % 64, '\0');
    return *this;
  }
  /// Appends the CRC-32 of everything so far (a well-formed footer).
  ByteBuilder& Crc() {
    return Pod(storage::Crc32(bytes_.data(), bytes_.size()));
  }
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

// Common prefix: header + a 1-attribute ordinal schema with the given
// domain, up to (excluding) the dims section. `version` locks either the
// legacy v1 layout or the current v2 one (they differ only in the payload
// alignment and table encoding after this prefix).
ByteBuilder MinimalPrefix(std::uint64_t domain, std::uint32_t version = 1) {
  ByteBuilder b;
  b.Pod('P').Pod('V').Pod('L').Pod('S');
  b.Pod(version);
  b.Str("Test");                               // mechanism
  b.Pod(double{0.5});                          // epsilon
  b.Pod(std::uint64_t{7});                     // seed
  b.Pod(std::uint8_t{0}).Pod(std::uint64_t{64});  // reserved
  b.Pod(std::uint32_t{1});                     // num_attributes
  b.Str("A").Pod(std::uint8_t{0}).Pod(domain);  // ordinal attribute
  return b;
}

TEST(SnapshotTest, HandcraftedMinimalSnapshotParses) {
  ByteBuilder b = MinimalPrefix(4);
  b.Pod(std::uint32_t{1}).Pod(std::uint64_t{4});  // dims
  for (const double v : {1.0, 2.0, 3.0, 4.0}) b.Pod(v);
  b.Pod(std::uint8_t{0});  // no table
  b.Crc();
  const std::string path = TempPath("minimal.pvls");
  WriteFileBytes(path, b.bytes());

  auto snapshot = storage::ReadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ("Test", snapshot->mechanism);
  EXPECT_EQ(0.5, snapshot->epsilon);
  EXPECT_EQ(std::uint64_t{7}, snapshot->seed);
  EXPECT_EQ(std::vector<std::size_t>{4}, snapshot->published.dims());
  EXPECT_TRUE(matrix::ValuesEqual(std::vector<double>{1.0, 2.0, 3.0, 4.0},
                                  snapshot->published.values()));
  EXPECT_FALSE(snapshot->prefix.has_value());
}

TEST(SnapshotTest, DimensionProductOverflowIsRejected) {
  // 2^32 * 2^32 wraps a 64-bit product; must fail overflow-checked, not
  // allocate a wrapped-to-tiny matrix.
  ByteBuilder b = MinimalPrefix(4);
  b.Pod(std::uint32_t{2})
      .Pod(std::uint64_t{1} << 32)
      .Pod(std::uint64_t{1} << 32);
  b.Crc();
  const std::string path = TempPath("overflow.pvls");
  WriteFileBytes(path, b.bytes());
  auto snapshot = storage::ReadSnapshot(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_NE(std::string::npos,
            snapshot.status().message().find("overflow"))
      << snapshot.status().ToString();
}

TEST(SnapshotTest, MatrixPayloadBeyondFileSizeIsRejected) {
  // A 2^40-cell claim in a few-hundred-byte file must be rejected before
  // any allocation happens.
  ByteBuilder b = MinimalPrefix(std::uint64_t{1} << 40);
  b.Pod(std::uint32_t{1}).Pod(std::uint64_t{1} << 40);
  b.Crc();
  const std::string path = TempPath("huge.pvls");
  WriteFileBytes(path, b.bytes());
  EXPECT_FALSE(storage::ReadSnapshot(path).ok());
}

// The current write format: the same minimal release, version 2 —
// payload sections aligned to 64-byte offsets, binary64 table entries
// under the (mant_dig, accum_bytes) = (53, 8) header. Locks the v2 byte
// layout independently of the writer.
TEST(SnapshotTest, HandcraftedV2SnapshotParsesAndMaps) {
  ByteBuilder b = MinimalPrefix(4, /*version=*/2);
  b.Pod(std::uint32_t{1}).Pod(std::uint64_t{4});  // dims
  b.PadTo64();
  for (const double v : {1.0, 2.0, 3.0, 4.0}) b.Pod(v);
  b.Pod(std::uint8_t{1});  // table follows
  b.Pod(std::uint16_t{53}).Pod(std::uint16_t{8});
  b.PadTo64();
  for (const double v : {1.0, 3.0, 6.0, 10.0}) b.Pod(v);
  b.Crc();
  const std::string path = TempPath("minimal_v2.pvls");
  WriteFileBytes(path, b.bytes());

  auto snapshot = storage::ReadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ("Test", snapshot->mechanism);
  EXPECT_TRUE(matrix::ValuesEqual(std::vector<double>{1.0, 2.0, 3.0, 4.0},
                                  snapshot->published.values()));
  ASSERT_TRUE(snapshot->prefix.has_value());
  EXPECT_TRUE(matrix::ValuesEqual(std::vector<double>{1.0, 3.0, 6.0, 10.0},
                                  snapshot->prefix->raw_sums()));

  auto info = storage::InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(53u, info->table_mant_dig);
  EXPECT_EQ(8u, info->table_accum_bytes);
  EXPECT_TRUE(info->table_adoptable);

  auto mapped = storage::MappedSnapshot::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((std::vector<std::size_t>{4}), mapped->dims());
  ASSERT_TRUE(mapped->has_prefix_table());
  EXPECT_EQ(10.0, mapped->prefix_table()[3]);
  EXPECT_EQ(3.0, mapped->matrix_values()[2]);

  // The serving chain adopts the stored entries in place: a view into the
  // mapping, no rebuild.
  auto session = storage::MapSession(path);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_TRUE(session->prefix_table().is_view());
  query::RangeQuery q(1);
  ASSERT_TRUE(q.SetRange(session->schema(), 0, 1, 2).ok());
  EXPECT_EQ(5.0, session->Answer(q));  // 6 - 1
}

// Legacy tables (x87 extended in v2, double-double in v1) are never
// adopted: every loader rebuilds the table from the matrix section. The
// matrix is irregular so that an adopted legacy entry would show up as a
// rounding difference against a fresh binary64 build.
constexpr double kLegacyValues[] = {0.1, 0.2, 0.3,    1e-3,
                                    7.7, -2.5, 1e10, 0.123456789};
constexpr std::size_t kLegacyCells = std::size(kLegacyValues);

// Answers of every 1-d box over the legacy matrix, from `session`.
std::vector<double> AllBoxAnswers(const query::PublishingSession& session) {
  std::vector<double> answers;
  for (std::size_t lo = 0; lo < kLegacyCells; ++lo) {
    for (std::size_t hi = lo; hi < kLegacyCells; ++hi) {
      query::RangeQuery q(1);
      EXPECT_TRUE(q.SetRange(session.schema(), 0, lo, hi).ok());
      answers.push_back(session.Answer(q));
    }
  }
  return answers;
}

// The answers a fresh binary64 build over the legacy matrix gives.
std::vector<double> FreshLegacyAnswers() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", kLegacyCells));
  const data::Schema schema(std::move(attrs));
  matrix::FrequencyMatrix m({kLegacyCells});
  for (std::size_t i = 0; i < kLegacyCells; ++i) m[i] = kLegacyValues[i];
  auto fresh = query::PublishingSession::FromMatrix(schema, std::move(m));
  EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
  return AllBoxAnswers(*fresh);
}

TEST(SnapshotTest, LegacyX87V2TableIsRebuiltOnEveryLoader) {
  ByteBuilder b = MinimalPrefix(kLegacyCells, /*version=*/2);
  b.Pod(std::uint32_t{1}).Pod(std::uint64_t{kLegacyCells});
  b.PadTo64();
  for (const double v : kLegacyValues) b.Pod(v);
  b.Pod(std::uint8_t{1});  // table follows
  b.Pod(std::uint16_t{64}).Pod(std::uint16_t{16});  // x87 extended
  b.PadTo64();
  // What the x87 writer produced: 80-bit running sums, value bytes first,
  // the rest of each 16-byte slot zeroed.
  long double run = 0.0L;
  for (const double v : kLegacyValues) {
    run += v;
    char slot[16] = {};
    std::memcpy(slot, &run, std::min<std::size_t>(10, sizeof(run)));
    b.Raw(slot, sizeof(slot));
  }
  b.Crc();
  const std::string path = TempPath("legacy_x87_v2.pvls");
  WriteFileBytes(path, b.bytes());

  auto info = storage::InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->has_prefix_table);
  EXPECT_EQ(64u, info->table_mant_dig);
  EXPECT_EQ(16u, info->table_accum_bytes);
  EXPECT_FALSE(info->table_adoptable);
  auto snapshot = storage::ReadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_FALSE(snapshot->prefix.has_value());

  const std::vector<double> expected = FreshLegacyAnswers();
  auto loaded = storage::LoadSession(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(expected, AllBoxAnswers(*loaded));
  auto mapped = storage::MapSession(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_FALSE(mapped->prefix_table().is_view());  // rebuilt, not adopted
  EXPECT_FALSE(mapped->has_published());
  EXPECT_EQ(expected, AllBoxAnswers(*mapped));
}

// A complete v1 file (dims + matrix + double-double table, no alignment
// padding): the legacy format stays readable byte-for-byte, its table is
// rebuilt from the matrix, and the serving entry point falls back from
// the mmap path (v1 sections are unaligned) to the copy loader.
TEST(SnapshotTest, LegacyV1SnapshotStillLoadsAndServes) {
  ByteBuilder b = MinimalPrefix(kLegacyCells, /*version=*/1);
  b.Pod(std::uint32_t{1}).Pod(std::uint64_t{kLegacyCells});  // no padding
  for (const double v : kLegacyValues) b.Pod(v);
  b.Pod(std::uint8_t{1});  // table follows
  b.Pod(std::uint16_t{64});
  b.Pod(std::uint8_t{1});  // exact
  long double run = 0.0L;
  for (const double v : kLegacyValues) {
    run += v;
    const double hi = static_cast<double>(run);
    b.Pod(hi).Pod(static_cast<double>(run - hi));  // (hi, lo) pairs
  }
  b.Crc();
  const std::string path = TempPath("legacy_v1.pvls");
  WriteFileBytes(path, b.bytes());

  auto info = storage::InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(1u, info->version);
  EXPECT_TRUE(info->has_prefix_table);
  EXPECT_FALSE(info->table_adoptable);
  auto snapshot = storage::ReadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_FALSE(snapshot->prefix.has_value());

  const std::vector<double> expected = FreshLegacyAnswers();
  auto loaded = storage::LoadSession(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(expected, AllBoxAnswers(*loaded));

  auto mapped = storage::MapSession(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, mapped.status().code());
  auto served = storage::OpenServingSession(path);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->has_published());  // copy path materializes
  EXPECT_EQ(expected, AllBoxAnswers(*served));
}

TEST(SnapshotTest, V2NonzeroSectionPaddingIsRejected) {
  ByteBuilder b = MinimalPrefix(4, /*version=*/2);
  b.Pod(std::uint32_t{1}).Pod(std::uint64_t{4});
  std::string bytes = b.bytes();
  bytes.append((64 - bytes.size() % 64) % 64, '\0');
  bytes[bytes.size() - 1] = '\x01';  // corrupt the padding, then re-CRC
  ByteBuilder rest;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) rest.Pod(v);
  rest.Pod(std::uint8_t{0});
  bytes += rest.bytes();
  ByteBuilder footer;
  footer.Pod(storage::Crc32(bytes.data(), bytes.size()));
  bytes += footer.bytes();
  const std::string path = TempPath("bad_padding.pvls");
  WriteFileBytes(path, bytes);

  auto snapshot = storage::ReadSnapshot(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_NE(std::string::npos, snapshot.status().message().find("padding"))
      << snapshot.status().ToString();
  EXPECT_FALSE(storage::MappedSnapshot::Open(path).ok());
}

TEST(SnapshotTest, HierarchyWithFanoutOneIsRejected) {
  ByteBuilder b;
  b.Pod('P').Pod('V').Pod('L').Pod('S');
  b.Pod(std::uint32_t{1});
  b.Str("");
  b.Pod(double{0.5}).Pod(std::uint64_t{7});
  b.Pod(std::uint8_t{0}).Pod(std::uint64_t{64});
  b.Pod(std::uint32_t{1});
  // Nominal attribute whose "hierarchy" is a unary chain — must be
  // rejected during parsing (it would otherwise recurse once per node).
  b.Str("N").Pod(std::uint8_t{1});
  b.Pod(std::uint64_t{3});
  b.Pod(std::uint32_t{1}).Pod(std::uint32_t{1}).Pod(std::uint32_t{0});
  b.Crc();
  const std::string path = TempPath("chain.pvls");
  WriteFileBytes(path, b.bytes());
  EXPECT_FALSE(storage::ReadSnapshot(path).ok());
}

// ---------------------------------------------------------------------------
// The zero-copy serving chain: MappedSnapshot -> view table -> session.

TEST(SnapshotTest, MappedSessionAnswers1kWorkloadIdenticallyToCopyLoad) {
  const data::Schema schema = TestSchema();
  common::ThreadPool pool(4);
  const query::PublishingSession original = PublishTestSession(schema, &pool);
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 1000);
  const std::vector<double> expected = original.AnswerAll(workload);

  const std::string path = TempPath("mapped.pvls");
  ASSERT_TRUE(storage::SaveSession(path, original).ok());

  auto copied = storage::LoadSession(path, &pool);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  auto mapped = storage::MapSession(path, &pool);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  EXPECT_EQ(expected, copied->AnswerAll(workload));
  EXPECT_EQ(expected, mapped->AnswerAll(workload));
  EXPECT_EQ(original.metadata().mechanism, mapped->metadata().mechanism);
  EXPECT_EQ(original.metadata().epsilon, mapped->metadata().epsilon);
  EXPECT_EQ(original.metadata().seed, mapped->metadata().seed);
}

TEST(SnapshotTest, MappedSessionServesFromAViewWithoutMaterializing) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession original =
      PublishTestSession(schema, nullptr);
  const std::string path = TempPath("view.pvls");
  ASSERT_TRUE(storage::SaveSession(path, original).ok());

  auto mapped = storage::MapSession(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // Zero-copy contract: the table is a span view into the mapping, no
  // matrix object exists, and re-saving (which would need one) is
  // rejected rather than crashing.
  EXPECT_TRUE(mapped->prefix_table().is_view());
  EXPECT_FALSE(mapped->has_published());
  EXPECT_FALSE(storage::SaveSession(TempPath("resave.pvls"), *mapped).ok());

  // The view must equal the original entries bit-for-bit.
  const auto want = original.prefix_table().raw_sums();
  const auto got = mapped->prefix_table().raw_sums();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << "entry " << i;
  }
}

TEST(SnapshotTest, MappedSnapshotSectionsAreAligned) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession original =
      PublishTestSession(schema, nullptr);
  const std::string path = TempPath("aligned.pvls");
  ASSERT_TRUE(storage::SaveSession(path, original).ok());

  auto mapped = storage::MappedSnapshot::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped->has_prefix_table());
  // Sections sit on 64-byte file offsets and the mapping is page-aligned,
  // so the in-memory spans are 64-byte aligned — the precondition for
  // reading the f64 sections in place.
  EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(
                    mapped->matrix_values().data()) % 64);
  EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(
                    mapped->prefix_table().data()) % 64);
  EXPECT_EQ(mapped->num_cells(), mapped->prefix_table().size());
}

TEST(SnapshotTest, RewritingASnapshotDoesNotDisturbLiveMappings) {
  const data::Schema schema = TestSchema();
  const std::vector<query::RangeQuery> workload = TestWorkload(schema, 200);
  mechanism::PriveletPlusMechanism mech({"Occ"});
  const std::string path = TempPath("republish.pvls");

  auto first = query::PublishingSession::Publish(
      schema, mech, RandomMatrix(schema, 3), /*epsilon=*/0.9, /*seed=*/41);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(storage::SaveSession(path, *first).ok());
  auto mapped = storage::MapSession(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const std::vector<double> old_answers = mapped->AnswerAll(workload);

  // Republish to the same path while the mapping is live. The writer
  // renames a temp file into place, so the mapped session keeps serving
  // the old inode's pages (no SIGBUS, no torn reads) while new opens see
  // the new release.
  auto second = query::PublishingSession::Publish(
      schema, mech, RandomMatrix(schema, 3), /*epsilon=*/0.9, /*seed=*/42);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(storage::SaveSession(path, *second).ok());

  EXPECT_EQ(old_answers, mapped->AnswerAll(workload));
  auto remapped = storage::MapSession(path);
  ASSERT_TRUE(remapped.ok()) << remapped.status().ToString();
  EXPECT_EQ(second->AnswerAll(workload), remapped->AnswerAll(workload));
  EXPECT_NE(old_answers, remapped->AnswerAll(workload));
}

TEST(SnapshotTest, MappedOpenRejectsFlippedBytesViaTheSingleCrcCheck) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession session = PublishTestSession(schema, nullptr);
  const std::string path = TempPath("mflip_src.pvls");
  ASSERT_TRUE(storage::SaveSession(path, session).ok());
  const std::string bytes = ReadFileBytes(path);

  const std::string flip = TempPath("mflip.pvls");
  for (const std::size_t offset :
       {std::size_t{9}, std::size_t{60}, bytes.size() / 3,
        2 * bytes.size() / 3, bytes.size() - 2}) {
    std::string corrupted = bytes;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
    WriteFileBytes(flip, corrupted);
    EXPECT_FALSE(storage::MappedSnapshot::Open(flip).ok())
        << "flip at " << offset << " mapped";
  }
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{8}, std::size_t{40}, bytes.size() / 2,
        bytes.size() - 1}) {
    WriteFileBytes(flip, bytes.substr(0, keep));
    EXPECT_FALSE(storage::MappedSnapshot::Open(flip).ok())
        << "prefix of " << keep << " bytes mapped";
  }
}

// ---------------------------------------------------------------------------
// API-level validation.

TEST(SnapshotTest, FromSnapshotRejectsMismatchedDims) {
  storage::ReleaseSnapshot snapshot;
  snapshot.schema = TestSchema();
  snapshot.published =
      matrix::FrequencyMatrix(std::vector<std::size_t>{2, 2});
  auto session = query::PublishingSession::FromSnapshot(std::move(snapshot));
  EXPECT_FALSE(session.ok());
}

TEST(SnapshotTest, WriteSnapshotRejectsMismatchedDims) {
  storage::ReleaseSnapshot snapshot;
  snapshot.schema = TestSchema();
  snapshot.published =
      matrix::FrequencyMatrix(std::vector<std::size_t>{2, 2});
  EXPECT_FALSE(
      storage::WriteSnapshot(TempPath("bad_dims.pvls"), snapshot).ok());
}

}  // namespace
}  // namespace privelet
