// Release snapshots (storage/snapshot.h): the PVLS round trip must be
// lossless — a session restored from a snapshot answers a 1k-query
// workload bit-identically to the session that produced it — the file
// must carry nothing but the schema, provenance and prefix table (no
// noise seed), and corrupt, truncated, retired-version or absurd files
// must come back as Status errors from every reader, never crashes or
// pathological allocations.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "privelet/common/thread_pool.h"
#include "privelet/data/attribute.h"
#include "privelet/data/hierarchy.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/matrix/prefix_sum.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/workload.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/storage/crc32.h"
#include "privelet/storage/session_io.h"
#include "privelet/storage/snapshot.h"
#include "scratch_copy.h"

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
                                            common::ThreadPool* pool,
                                            std::uint64_t seed = 41) {
  mechanism::PriveletPlusMechanism mech({"Occ"});
  auto session = query::PublishingSession::Publish(
      schema, mech, RandomMatrix(schema, 3), /*epsilon=*/0.9, seed, pool);
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

void ExpectSameTable(const matrix::PrefixSumTable& want,
                     const matrix::PrefixSumTable& got) {
  ASSERT_EQ(want.dims(), got.dims());
  const auto w = want.raw_sums();
  const auto g = got.raw_sums();
  ASSERT_EQ(w.size(), g.size());
  EXPECT_EQ(0, std::memcmp(w.data(), g.data(), w.size() * sizeof(double)));
}

// The three read entry points share one parse, so a file that one of them
// rejects must be rejected by all three, with the same status code and,
// when `message` is non-empty, a message containing it.
void ExpectEveryReaderFails(const std::string& path, StatusCode code,
                            const std::string& what,
                            const std::string& message = "") {
  const std::pair<const char*, Status> results[] = {
      {"InspectSnapshot", storage::InspectSnapshot(path).status()},
      {"LoadSession", storage::LoadSession(path).status()},
      {"MapSession", storage::MapSession(path).status()},
  };
  for (const auto& [reader, status] : results) {
    EXPECT_EQ(code, status.code())
        << reader << " on " << what << ": " << status.ToString();
    EXPECT_NE(std::string::npos, status.message().find(message))
        << reader << " on " << what << ": " << status.ToString();
  }
}

// ---------------------------------------------------------------------------
// Round trips.

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
  EXPECT_EQ("Privelet+{Occ}", loaded->metadata().mechanism);
  EXPECT_EQ(0.9, loaded->metadata().epsilon);
  EXPECT_FALSE(loaded->metadata().plan.has_value());
}

TEST(SnapshotTest, StoredPrefixTableIsLoadedVerbatim) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession original =
      PublishTestSession(schema, nullptr);
  const std::string path = TempPath("table.pvls");
  ASSERT_TRUE(storage::SaveSession(path, original).ok());

  auto loaded = storage::LoadSession(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->prefix_table().is_view());  // owned copy
  ExpectSameTable(original.prefix_table(), loaded->prefix_table());
}

TEST(SnapshotTest, LoadSessionPreservesSchema) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession session = PublishTestSession(schema, nullptr);
  const std::string path = TempPath("schema.pvls");
  ASSERT_TRUE(storage::SaveSession(path, session).ok());

  auto loaded = storage::LoadSession(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const data::Schema& got_schema = loaded->schema();
  ASSERT_EQ(schema.num_attributes(), got_schema.num_attributes());
  for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
    const data::Attribute& want = schema.attribute(a);
    const data::Attribute& got = got_schema.attribute(a);
    EXPECT_EQ(want.name(), got.name());
    EXPECT_EQ(want.kind(), got.kind());
    EXPECT_EQ(want.domain_size(), got.domain_size());
  }
  // The grouped hierarchy must survive structurally: same node count,
  // same per-node fanout and leaf ranges, and it must re-validate.
  const data::Hierarchy& want = schema.attribute(1).hierarchy();
  const data::Hierarchy& got = got_schema.attribute(1).hierarchy();
  ASSERT_EQ(want.num_nodes(), got.num_nodes());
  EXPECT_EQ(want.height(), got.height());
  for (std::size_t id = 0; id < want.num_nodes(); ++id) {
    EXPECT_EQ(want.fanout(id), got.fanout(id)) << "node " << id;
    EXPECT_EQ(want.node(id).leaf_begin, got.node(id).leaf_begin);
    EXPECT_EQ(want.node(id).leaf_end, got.node(id).leaf_end);
  }
  EXPECT_TRUE(got.Validate().ok());
}

// Whoever holds the noise seed can regenerate the noise and subtract it
// from the release, so no snapshot may carry it, whether the publish ran
// in core or streamed.
TEST(SnapshotTest, NoiseSeedIsNotPersisted) {
  constexpr std::uint64_t kSeed = 0x0123456789ABCDEFull;
  char seed_bytes[sizeof(kSeed)];
  std::memcpy(seed_bytes, &kSeed, sizeof(kSeed));  // little-endian hosts
  const std::string needle(seed_bytes, sizeof(seed_bytes));
  const data::Schema schema = TestSchema();

  const std::string saved = TempPath("seed_saved.pvls");
  ASSERT_TRUE(storage::SaveSession(
                  saved, PublishTestSession(schema, nullptr, kSeed))
                  .ok());
  EXPECT_EQ(std::string::npos, ReadFileBytes(saved).find(needle));

  mechanism::PriveletPlusMechanism mech({"Occ"});
  auto streamed = query::PublishingSession::Publish(
      schema, mech, testutil::ScratchCopy(RandomMatrix(schema, 3), 4096),
      /*epsilon=*/0.9, kSeed);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_TRUE(streamed->prefix_table().is_scratch());
  const std::string streamed_path = TempPath("seed_streamed.pvls");
  ASSERT_TRUE(storage::SaveSession(streamed_path, *streamed).ok());
  EXPECT_EQ(ReadFileBytes(saved), ReadFileBytes(streamed_path));
}

// ---------------------------------------------------------------------------
// Corruption and truncation: every case runs all three readers.

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
        std::size_t{64}, bytes.size() / 2, bytes.size() - 5,
        bytes.size() - 1}) {
    WriteFileBytes(cut, bytes.substr(0, keep));
    ExpectEveryReaderFails(cut, StatusCode::kInvalidArgument,
                           "a prefix of " + std::to_string(keep) + " bytes");
  }
}

TEST(SnapshotTest, FlippedBytesAreRejected) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession session = PublishTestSession(schema, nullptr);
  const std::string path = TempPath("flip_src.pvls");
  ASSERT_TRUE(storage::SaveSession(path, session).ok());
  const std::string bytes = ReadFileBytes(path);

  const std::string flip = TempPath("flip.pvls");
  // Offsets spread over magic, version, header, padding, table payload,
  // and the trailing CRC itself.
  for (const std::size_t offset :
       {std::size_t{0}, std::size_t{4}, std::size_t{9}, std::size_t{60},
        bytes.size() / 3, 2 * bytes.size() / 3, bytes.size() - 2}) {
    std::string corrupted = bytes;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
    WriteFileBytes(flip, corrupted);
    ExpectEveryReaderFails(flip, StatusCode::kInvalidArgument,
                           "a flip at " + std::to_string(offset));
  }
}

TEST(SnapshotTest, TrailingBytesAreRejected) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession session = PublishTestSession(schema, nullptr);
  const std::string path = TempPath("trail_src.pvls");
  ASSERT_TRUE(storage::SaveSession(path, session).ok());
  const std::string padded = TempPath("trail.pvls");
  WriteFileBytes(padded, ReadFileBytes(path) + std::string(6, '\0'));
  ExpectEveryReaderFails(padded, StatusCode::kInvalidArgument,
                         "6 trailing bytes");
}

TEST(SnapshotTest, MissingFileIsAnIOError) {
  ExpectEveryReaderFails(TempPath("does_not_exist.pvls"), StatusCode::kIOError,
                         "a missing file");
}

// A path that is not a regular file cannot be a snapshot, but it is not a
// corrupt one either: it fails like a missing file.
TEST(SnapshotTest, DirectoryIsAnIOError) {
  ExpectEveryReaderFails(testing::TempDir(), StatusCode::kIOError,
                         "a directory");
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
// larger than the file, retired versions).

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
  /// Zero-fills to the next 64-byte offset (the table's alignment).
  ByteBuilder& PadTo64() {
    bytes_.append((64 - bytes_.size() % 64) % 64, '\0');
    return *this;
  }
  /// Appends the CRC-32 of everything so far (a well-formed footer).
  ByteBuilder& Crc() {
    return Pod(storage::Crc32(bytes_.data(), bytes_.size()));
  }
  std::string& bytes() { return bytes_; }

 private:
  std::string bytes_;
};

// Common v4 prefix: magic, version, provenance and a 1-attribute ordinal
// schema with the given domain, up to (excluding) the dims section.
ByteBuilder MinimalPrefix(std::uint64_t domain) {
  ByteBuilder b;
  b.Pod('P').Pod('V').Pod('L').Pod('S');
  b.Pod(std::uint32_t{4});
  b.Str("Test");                                // mechanism
  b.Pod(double{0.5});                           // epsilon
  b.Pod(std::uint32_t{1});                      // num_attributes
  b.Str("A").Pod(std::uint8_t{0}).Pod(domain);  // ordinal attribute
  return b;
}

// The minimal 4-cell release {1, 2, 3, 4}: its table is {1, 3, 6, 10}.
ByteBuilder MinimalSnapshot() {
  ByteBuilder b = MinimalPrefix(4);
  b.Pod(std::uint32_t{1}).Pod(std::uint64_t{4});  // dims
  b.Pod(std::uint8_t{0});                         // no plan
  b.PadTo64();
  for (const double v : {1.0, 3.0, 6.0, 10.0}) b.Pod(v);
  return b.Crc();
}

TEST(SnapshotTest, HandcraftedMinimalSnapshotParses) {
  const std::string path = TempPath("minimal.pvls");
  WriteFileBytes(path, MinimalSnapshot().bytes());

  auto info = storage::InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(4u, info->version);
  EXPECT_EQ("Test", info->mechanism);
  EXPECT_EQ(0.5, info->epsilon);
  EXPECT_FALSE(info->plan.has_value());
  EXPECT_EQ(std::vector<std::size_t>{4}, info->dims);
  EXPECT_EQ(64u, info->table_offset);
  EXPECT_EQ(32u, info->table_bytes);
  EXPECT_EQ(100u, info->file_bytes);

  auto mapped = storage::MappedSnapshot::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(10.0, mapped->prefix_table()[3]);

  // The serving chain adopts the stored entries in place (a view into the
  // mapping); the copy path owns them. Both answer 6 - 1.
  query::RangeQuery q(1);
  auto session = storage::MapSession(path);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_TRUE(session->prefix_table().is_view());
  ASSERT_TRUE(q.SetRange(session->schema(), 0, 1, 2).ok());
  EXPECT_EQ(5.0, session->Answer(q));
  auto loaded = storage::LoadSession(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(5.0, loaded->Answer(q));
}

TEST(SnapshotTest, HandcraftedPlanSectionParses) {
  ByteBuilder b = MinimalPrefix(4);
  b.Pod(std::uint32_t{1}).Pod(std::uint64_t{4});  // dims
  b.Pod(std::uint8_t{1});                         // plan follows
  b.Str("privelet").Pod(double{2.5}).Str("basic").Pod(double{7.0});
  b.Pod(std::uint32_t{500});
  b.PadTo64();
  for (const double v : {1.0, 3.0, 6.0, 10.0}) b.Pod(v);
  const std::string path = TempPath("planned.pvls");
  WriteFileBytes(path, b.Crc().bytes());

  auto loaded = storage::LoadSession(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->metadata().plan.has_value());
  EXPECT_EQ((query::PlanRecord{"privelet", 2.5, "basic", 7.0, 500}),
            *loaded->metadata().plan);
  // The writer reproduces the handcrafted bytes exactly.
  const std::string resaved = TempPath("planned_resaved.pvls");
  ASSERT_TRUE(storage::SaveSession(resaved, *loaded).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(resaved));
}

TEST(SnapshotTest, DimensionProductOverflowIsRejected) {
  // 2^32 * 2^32 wraps a 64-bit product; must fail overflow-checked, not
  // locate a wrapped-to-tiny table.
  ByteBuilder b = MinimalPrefix(4);
  b.Pod(std::uint32_t{2})
      .Pod(std::uint64_t{1} << 32)
      .Pod(std::uint64_t{1} << 32);
  b.Crc();
  const std::string path = TempPath("overflow.pvls");
  WriteFileBytes(path, b.bytes());
  ExpectEveryReaderFails(path, StatusCode::kInvalidArgument, "overflowing dims",
                         "overflow");
}

TEST(SnapshotTest, TablePayloadBeyondFileSizeIsRejected) {
  // A 2^40-cell claim in a few-hundred-byte file must be rejected before
  // any allocation happens.
  ByteBuilder b = MinimalPrefix(std::uint64_t{1} << 40);
  b.Pod(std::uint32_t{1}).Pod(std::uint64_t{1} << 40);
  b.Pod(std::uint8_t{0});
  b.Crc();
  const std::string path = TempPath("huge.pvls");
  WriteFileBytes(path, b.bytes());
  ExpectEveryReaderFails(path, StatusCode::kInvalidArgument, "a 2^40 claim");
}

// PVLS v1, v2 and v3 carried the noisy matrix, the publish seed and
// (v1/v2) legacy table encodings. Each is handcrafted in its own layout
// with a valid CRC, and every reader rejects it naming the version.
TEST(SnapshotTest, RetiredVersionsAreRejectedByEveryReader) {
  for (const std::uint32_t version : {1u, 2u, 3u}) {
    ByteBuilder b;
    b.Pod('P').Pod('V').Pod('L').Pod('S').Pod(version);
    b.Str("Test").Pod(double{0.5}).Pod(std::uint64_t{7});  // ..., seed
    if (version == 3) {
      b.Str("privelet").Pod(double{2.5}).Str("").Pod(double{0.0});
      b.Pod(std::uint32_t{10});
    }
    b.Pod(std::uint8_t{0}).Pod(std::uint64_t{64});  // reserved fields
    b.Pod(std::uint32_t{1}).Str("A").Pod(std::uint8_t{0});
    b.Pod(std::uint64_t{4});                        // schema
    b.Pod(std::uint32_t{1}).Pod(std::uint64_t{4});  // dims
    if (version >= 2) b.PadTo64();
    for (const double v : {1.0, 2.0, 3.0, 4.0}) b.Pod(v);  // matrix
    b.Pod(std::uint8_t{0});                                // no table
    const std::string path =
        TempPath("retired_v" + std::to_string(version) + ".pvls");
    WriteFileBytes(path, b.Crc().bytes());
    ExpectEveryReaderFails(
        path, StatusCode::kInvalidArgument, "a v" + std::to_string(version),
        "PVLS v" + std::to_string(version) +
            " is no longer supported; re-publish the release");
  }
}

TEST(SnapshotTest, UnknownVersionIsRejectedByEveryReader) {
  for (const std::uint32_t version : {0u, 5u, 99u}) {
    ByteBuilder b = MinimalSnapshot();
    std::string bytes = b.bytes().substr(0, b.bytes().size() - 4);
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    ByteBuilder patched;
    patched.bytes() = bytes;
    const std::string path = TempPath("version_x.pvls");
    WriteFileBytes(path, patched.Crc().bytes());
    ExpectEveryReaderFails(path, StatusCode::kInvalidArgument,
                           "version " + std::to_string(version),
                           "unsupported snapshot version");
  }
}

TEST(SnapshotTest, NonzeroSectionPaddingIsRejected) {
  ByteBuilder b = MinimalPrefix(4);
  b.Pod(std::uint32_t{1}).Pod(std::uint64_t{4});
  b.Pod(std::uint8_t{0});
  b.PadTo64();
  b.bytes().back() = '\x01';  // corrupt the padding, then CRC it
  for (const double v : {1.0, 3.0, 6.0, 10.0}) b.Pod(v);
  const std::string path = TempPath("bad_padding.pvls");
  WriteFileBytes(path, b.Crc().bytes());
  ExpectEveryReaderFails(path, StatusCode::kInvalidArgument,
                         "nonzero padding", "padding");
}

TEST(SnapshotTest, HierarchyWithFanoutOneIsRejected) {
  ByteBuilder b;
  b.Pod('P').Pod('V').Pod('L').Pod('S');
  b.Pod(std::uint32_t{4});
  b.Str("");
  b.Pod(double{0.5});
  b.Pod(std::uint32_t{1});
  // Nominal attribute whose "hierarchy" is a unary chain — must be
  // rejected during parsing (it would otherwise recurse once per node).
  b.Str("N").Pod(std::uint8_t{1});
  b.Pod(std::uint64_t{3});
  b.Pod(std::uint32_t{1}).Pod(std::uint32_t{1}).Pod(std::uint32_t{0});
  b.Crc();
  const std::string path = TempPath("chain.pvls");
  WriteFileBytes(path, b.bytes());
  ExpectEveryReaderFails(path, StatusCode::kInvalidArgument, "fanout 1",
                         "fanout 1");
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
}

TEST(SnapshotTest, MappedSessionServesFromAViewAndSavesIdentically) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession original =
      PublishTestSession(schema, nullptr);
  const std::string path = TempPath("view.pvls");
  ASSERT_TRUE(storage::SaveSession(path, original).ok());

  auto mapped = storage::MapSession(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // Zero-copy contract: the table is a span view into the mapping, equal
  // to the original entries bit for bit.
  EXPECT_TRUE(mapped->prefix_table().is_view());
  ExpectSameTable(original.prefix_table(), mapped->prefix_table());

  // A mapped session is a session like any other: saving it rewrites the
  // same file.
  const std::string resaved = TempPath("resave.pvls");
  ASSERT_TRUE(storage::SaveSession(resaved, *mapped).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(resaved));
}

TEST(SnapshotTest, MappedTableIsAligned) {
  const data::Schema schema = TestSchema();
  const query::PublishingSession original =
      PublishTestSession(schema, nullptr);
  const std::string path = TempPath("aligned.pvls");
  ASSERT_TRUE(storage::SaveSession(path, original).ok());

  auto mapped = storage::MappedSnapshot::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // The table sits on a 64-byte file offset and the mapping is
  // page-aligned, so the in-memory span is 64-byte aligned — the
  // precondition for reading the f64 section in place.
  EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(
                    mapped->prefix_table().data()) % 64);
  EXPECT_EQ(mapped->num_cells(), mapped->prefix_table().size());
  EXPECT_EQ(original.prefix_table().raw_sums().size(), mapped->num_cells());
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

// ---------------------------------------------------------------------------
// API-level validation.

TEST(SnapshotTest, FromPartsRejectsMismatchedDims) {
  matrix::FrequencyMatrix m(std::vector<std::size_t>{2, 2});
  auto session = query::PublishingSession::FromParts(
      TestSchema(), matrix::PrefixSumTable(m), {});
  EXPECT_FALSE(session.ok());
}

TEST(SnapshotTest, StreamWriterPinsTheCellCount) {
  const data::Schema schema = TestSchema();
  const std::size_t cells = RandomMatrix(schema, 1).size();
  const std::vector<double> entries(cells + 1, 1.0);
  const std::string path = TempPath("stream.pvls");

  storage::SnapshotStreamWriter overlong;
  ASSERT_TRUE(overlong.Begin(path, {&schema, "Test", 0.5, nullptr}).ok());
  EXPECT_FALSE(overlong.AppendTableEntries(entries).ok());

  storage::SnapshotStreamWriter incomplete;
  ASSERT_TRUE(incomplete.Begin(path, {&schema, "Test", 0.5, nullptr}).ok());
  const std::span<const double> short_by_one =
      std::span<const double>(entries).first(cells - 1);
  ASSERT_TRUE(incomplete.AppendTableEntries(short_by_one).ok());
  EXPECT_FALSE(incomplete.Finish().ok());
  // Neither stream put a file in place.
  EXPECT_EQ(StatusCode::kIOError,
            storage::InspectSnapshot(path).status().code());
}

}  // namespace
}  // namespace privelet
