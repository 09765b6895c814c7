// The threading determinism contract: for a fixed seed, every publishing
// mechanism and both directions of the HN transform produce bit-identical
// output whatever the thread pool — none (serial), 1, 2, or 8 workers.
// The schemas are sized so the coefficient/cell spaces span many pool
// chunks and 128-draw noise groups, so every worker draws from the middle
// of the counter space, not just from index 0. At the end, the golden
// release pins the released bits themselves, not just their invariance.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "privelet/analysis/mechanism_planner.h"
#include "privelet/common/thread_pool.h"
#include "privelet/data/attribute.h"
#include "privelet/data/hierarchy.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/matrix/prefix_sum.h"
#include "privelet/mechanism/basic.h"
#include "privelet/mechanism/hay.h"
#include "privelet/mechanism/noise.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/mechanism/mechanism.h"
#include "privelet/query/plan_record.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/workload.h"
#include "privelet/rng/splitmix64.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/simd/dispatch.h"
#include "privelet/storage/session_io.h"
#include "privelet/storage/snapshot.h"
#include "privelet/wavelet/hn_transform.h"
#include "reference/per_line_engine.h"
#include "scoped_isa.h"
#include "scratch_copy.h"

namespace privelet {
namespace {

constexpr std::size_t kPoolSizes[] = {1, 2, 8};

// Ordinal 1024 x nominal {4,4}: 16384 cells, 1024 * 21 = 21504 HN
// coefficients — both spread over several pool chunks and many 128-draw
// noise groups.
data::Schema MultiChunkSchema() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Ord", 1024));
  attrs.push_back(data::Attribute::Nominal(
      "Nom", data::Hierarchy::Balanced({4, 4}).value()));
  return data::Schema(std::move(attrs));
}

data::Schema WideOrdinalSchema() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 20'000));
  return data::Schema(std::move(attrs));
}

matrix::FrequencyMatrix RandomMatrix(const data::Schema& schema,
                                     std::uint64_t seed) {
  matrix::FrequencyMatrix m(schema.DomainSizes());
  rng::Xoshiro256pp gen(seed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 40));
  }
  return m;
}

// Publishes with no pool and with each pool size; asserts every release
// is bitwise identical to the serial one.
void ExpectPublishInvariantUnderThreads(mechanism::Mechanism& mech,
                                        const data::Schema& schema,
                                        const matrix::FrequencyMatrix& m) {
  mech.set_thread_pool(nullptr);
  auto serial = mech.Publish(schema, m, /*epsilon=*/0.8, /*seed=*/31);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (const std::size_t threads : kPoolSizes) {
    common::ThreadPool pool(threads);
    mech.set_thread_pool(&pool);
    auto parallel = mech.Publish(schema, m, 0.8, 31);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_TRUE(matrix::ValuesEqual(serial->values(), parallel->values()))
        << mech.name() << " with " << threads << " threads";
    mech.set_thread_pool(nullptr);
  }
  // Different seed still yields a different release (the pools did not
  // somehow pin the stream).
  auto other = mech.Publish(schema, m, 0.8, 32);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(matrix::ValuesEqual(serial->values(), other->values()));
}

TEST(PublishDeterminismTest, BasicAcrossThreadCounts) {
  mechanism::BasicMechanism basic;
  const data::Schema schema = MultiChunkSchema();
  ExpectPublishInvariantUnderThreads(basic, schema, RandomMatrix(schema, 1));
}

TEST(PublishDeterminismTest, PriveletAcrossThreadCounts) {
  mechanism::PriveletMechanism privelet;
  const data::Schema schema = MultiChunkSchema();
  ExpectPublishInvariantUnderThreads(privelet, schema,
                                     RandomMatrix(schema, 2));
}

TEST(PublishDeterminismTest, PriveletPlusAcrossThreadCounts) {
  mechanism::PriveletPlusMechanism plus({"Nom"});
  const data::Schema schema = MultiChunkSchema();
  ExpectPublishInvariantUnderThreads(plus, schema, RandomMatrix(schema, 3));
}

TEST(PublishDeterminismTest, HayAcrossThreadCounts) {
  mechanism::HayHierarchicalMechanism hay;
  const data::Schema schema = WideOrdinalSchema();
  ExpectPublishInvariantUnderThreads(hay, schema, RandomMatrix(schema, 4));
}

// The per-line reference (reference/per_line_engine.h) pins the release:
// the panel engine with fused noise must reproduce it bit-for-bit for
// every thread count — the pool is a pure performance knob.
TEST(PublishDeterminismTest, PooledReleasesMatchPerLineReference) {
  mechanism::PriveletPlusMechanism mech({"Nom"});
  const data::Schema schema = MultiChunkSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 9);
  const matrix::FrequencyMatrix expected = reference::PublishPrivelet(
      schema, {"Nom"}, m, /*epsilon=*/0.8, /*seed=*/57);

  auto serial = mech.Publish(schema, m, 0.8, 57);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_TRUE(matrix::ValuesEqual(expected.values(), serial->values()))
      << "serial";
  for (const std::size_t threads : kPoolSizes) {
    common::ThreadPool pool(threads);
    mech.set_thread_pool(&pool);
    auto parallel = mech.Publish(schema, m, 0.8, 57);
    ASSERT_TRUE(parallel.ok());
    EXPECT_TRUE(matrix::ValuesEqual(expected.values(), parallel->values()))
        << threads << " threads";
    mech.set_thread_pool(nullptr);
  }
}

TEST(HnTransformDeterminismTest, ForwardAndInverseAcrossThreadCounts) {
  const data::Schema schema = MultiChunkSchema();
  auto transform = wavelet::HnTransform::Create(schema);
  ASSERT_TRUE(transform.ok());
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 5);

  auto serial_fwd = transform->Forward(m);
  ASSERT_TRUE(serial_fwd.ok());
  auto serial_inv = transform->Inverse(*serial_fwd);
  ASSERT_TRUE(serial_inv.ok());

  for (const std::size_t threads : kPoolSizes) {
    common::ThreadPool pool(threads);
    auto fwd = transform->Forward(m, &pool);
    ASSERT_TRUE(fwd.ok());
    EXPECT_TRUE(
        matrix::ValuesEqual(serial_fwd->coeffs.values(), fwd->coeffs.values()))
        << "forward, " << threads << " threads";
    auto inv = transform->Inverse(*fwd, &pool);
    ASSERT_TRUE(inv.ok());
    EXPECT_TRUE(matrix::ValuesEqual(serial_inv->values(), inv->values()))
        << "inverse, " << threads << " threads";
  }
}

TEST(PrefixSumDeterminismTest, PooledBuildMatchesSerial) {
  const data::Schema schema = MultiChunkSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 6);
  const matrix::PrefixSumTable serial(m);
  for (const std::size_t threads : kPoolSizes) {
    common::ThreadPool pool(threads);
    const matrix::PrefixSumTable pooled(m, &pool);
    ASSERT_EQ(0, std::memcmp(serial.raw_sums().data(),
                             pooled.raw_sums().data(),
                             serial.raw_sums().size_bytes()))
        << threads << " threads";
  }
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The bytes of a session's prefix table — what it serves from and what
// its snapshot stores.
std::string TableBytes(const query::PublishingSession& session) {
  const std::span<const double> sums = session.prefix_table().raw_sums();
  return std::string(reinterpret_cast<const char*>(sums.data()),
                     sums.size() * sizeof(double));
}

// The prefix-table bytes of a release matrix, for comparison with
// TableBytes.
std::string TableBytes(const matrix::FrequencyMatrix& release) {
  const matrix::PrefixSumTable table(release);
  const std::span<const double> sums = table.raw_sums();
  return std::string(reinterpret_cast<const char*>(sums.data()),
                     sums.size() * sizeof(double));
}

// Extends the sweep across the process boundary: a release published
// under any thread count serializes to the byte-identical snapshot file
// (CRC included), and the file loads back into a session holding the
// per-line reference release.
TEST(PublishDeterminismTest, SnapshotFilesInvariantAcrossThreads) {
  const data::Schema schema = MultiChunkSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 11);
  mechanism::PriveletPlusMechanism mech({"Nom"});

  const auto save = [&](common::ThreadPool* pool, const std::string& name) {
    mech.set_thread_pool(pool);
    auto session = query::PublishingSession::Publish(
        schema, mech, m, /*epsilon=*/0.8, /*seed=*/57, pool);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    const std::string path = testing::TempDir() + "/" + name;
    EXPECT_TRUE(storage::SaveSession(path, *session).ok());
    mech.set_thread_pool(nullptr);
    return path;
  };

  const std::string ref_path = save(nullptr, "det_ref.pvls");
  const std::string ref_bytes = FileBytes(ref_path);
  ASSERT_FALSE(ref_bytes.empty());
  for (const std::size_t threads : kPoolSizes) {
    common::ThreadPool pool(threads);
    const std::string path = save(&pool, "det_threads.pvls");
    EXPECT_EQ(ref_bytes, FileBytes(path)) << threads << " threads";
  }

  common::ThreadPool pool(2);
  auto loaded = storage::LoadSession(ref_path, &pool);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(
      TableBytes(reference::PublishPrivelet(schema, {"Nom"}, m, 0.8, 57)),
      TableBytes(*loaded));
}

// The out-of-core contract: a streamed publish (a scratch-backed input,
// so every stage runs through mmap scratch files under a memory budget
// far below the release size) must produce the byte-identical PVLS file
// of the in-core publish across thread counts, and its session must
// answer the same workload bit-identically. The budget is a pure
// operational knob, like the pool.
TEST(PublishDeterminismTest, StreamedPublishMatchesInCoreByteForByte) {
  const data::Schema schema = MultiChunkSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 21);
  mechanism::PriveletPlusMechanism mech({"Nom"});

  query::WorkloadOptions wopts;
  wopts.num_queries = 200;
  auto workload = query::GenerateWorkload(schema, wopts);
  ASSERT_TRUE(workload.ok());

  // 16384 cells = 128 KiB of doubles (plus a 256 KiB table): a 64 KiB
  // budget forces genuine out-of-core staging in every stage.
  constexpr std::size_t kBudget = std::size_t{1} << 16;
  constexpr std::size_t kThreadCounts[] = {0, 2, 8};  // 0 = serial
  const matrix::FrequencyMatrix scratch_m = testutil::ScratchCopy(m, kBudget);

  for (const std::size_t threads : kThreadCounts) {
    std::unique_ptr<common::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<common::ThreadPool>(threads);
    const std::string tag = std::to_string(threads) + " threads";

    mech.set_thread_pool(pool.get());
    auto in_core = query::PublishingSession::Publish(
        schema, mech, m, /*epsilon=*/0.8, /*seed=*/57, pool.get());
    ASSERT_TRUE(in_core.ok()) << in_core.status().ToString();
    EXPECT_FALSE(in_core->prefix_table().is_scratch());
    const std::string in_path = testing::TempDir() + "/det_incore.pvls";
    ASSERT_TRUE(storage::SaveSession(in_path, *in_core).ok());

    const std::string out_path = testing::TempDir() + "/det_streamed.pvls";
    auto streamed = query::PublishingSession::Publish(schema, mech, scratch_m,
                                                      0.8, 57, pool.get());
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString() << " " << tag;
    EXPECT_TRUE(streamed->prefix_table().is_scratch());
    ASSERT_TRUE(storage::SaveSession(out_path, *streamed).ok()) << tag;
    mech.set_thread_pool(nullptr);

    EXPECT_EQ(FileBytes(in_path), FileBytes(out_path)) << tag;
    EXPECT_EQ(TableBytes(*in_core), TableBytes(*streamed)) << tag;
    EXPECT_EQ(in_core->AnswerAll(*workload), streamed->AnswerAll(*workload))
        << tag;
  }
}

// The two routes of a non-contiguous axis — in core the batched kernel
// runs on the matrices themselves, out of core on gathered panels — must
// agree byte for byte at every kernel level, on every transform kind:
// padded Haar (101 -> 128) and an uneven nominal hierarchy, both off the
// contiguous last axis, and the per-line oracle agrees with both.
TEST(PublishDeterminismTest, StreamedPublishMatchesInCoreOnEveryAxisKind) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Padded", 101));
  attrs.push_back(data::Attribute::Nominal(
      "Uneven", data::Hierarchy::FromGroupSizes({2, 5, 3}).value()));
  attrs.push_back(data::Attribute::Ordinal("Last", 24));
  const data::Schema schema(std::move(attrs));
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 29);
  const matrix::FrequencyMatrix per_line =
      reference::PublishPrivelet(schema, {}, m, 0.8, 57);
  mechanism::PriveletMechanism mech;

  // 24240 cells = 189 KiB of doubles: a 64 KiB budget streams every pass.
  constexpr std::size_t kBudget = std::size_t{1} << 16;
  const matrix::FrequencyMatrix scratch_m = testutil::ScratchCopy(m, kBudget);
  common::ThreadPool pool(2);
  std::string reference_bytes;
  for (int lvl = 0; lvl <= static_cast<int>(simd::DetectBestIsa()); ++lvl) {
    const std::string name(
        simd::IsaLevelName(static_cast<simd::IsaLevel>(lvl)));
    for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                  &pool}) {
      const std::string tag =
          "isa " + name + (p == nullptr ? ", serial" : ", 2 threads");
      const testutil::ScopedIsa forced(static_cast<simd::IsaLevel>(lvl));
      mech.set_thread_pool(p);
      auto in_core = query::PublishingSession::Publish(
          schema, mech, m, /*epsilon=*/0.8, /*seed=*/57, p);
      ASSERT_TRUE(in_core.ok()) << in_core.status().ToString();
      EXPECT_EQ(TableBytes(per_line), TableBytes(*in_core)) << tag;
      const std::string in_path = testing::TempDir() + "/det_routes.pvls";
      ASSERT_TRUE(storage::SaveSession(in_path, *in_core).ok());

      const std::string out_path =
          testing::TempDir() + "/det_routes_streamed.pvls";
      auto streamed = query::PublishingSession::Publish(schema, mech,
                                                        scratch_m, 0.8, 57, p);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString() << " " << tag;
      ASSERT_TRUE(storage::SaveSession(out_path, *streamed).ok()) << tag;
      mech.set_thread_pool(nullptr);

      if (reference_bytes.empty()) reference_bytes = FileBytes(in_path);
      EXPECT_EQ(reference_bytes, FileBytes(in_path)) << "in core, " << tag;
      EXPECT_EQ(reference_bytes, FileBytes(out_path)) << "streamed, " << tag;
    }
  }
}

// Extends the serving sweep across the mmap boundary: the zero-copy
// mapped session must answer bit-identically to the legacy copy-loaded
// session, under every pool size — the storage mode of the prefix table
// (owned copy vs. span view into the file) is a pure operational knob.
TEST(PublishDeterminismTest, MappedServingMatchesCopyLoadAcrossThreads) {
  const data::Schema schema = MultiChunkSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 12);
  mechanism::PriveletPlusMechanism mech({"Nom"});

  query::WorkloadOptions wopts;
  wopts.num_queries = 300;
  auto workload = query::GenerateWorkload(schema, wopts);
  ASSERT_TRUE(workload.ok());

  auto session = query::PublishingSession::Publish(
      schema, mech, m, /*epsilon=*/0.8, /*seed=*/57);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const std::string path = testing::TempDir() + "/det_mapped.pvls";
  ASSERT_TRUE(storage::SaveSession(path, *session).ok());
  const std::vector<double> expected = session->AnswerAll(*workload);

  auto copied = storage::LoadSession(path);
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(expected, copied->AnswerAll(*workload));
  auto mapped_serial = storage::MapSession(path);
  ASSERT_TRUE(mapped_serial.ok()) << mapped_serial.status().ToString();
  EXPECT_EQ(expected, mapped_serial->AnswerAll(*workload));
  for (const std::size_t threads : kPoolSizes) {
    common::ThreadPool pool(threads);
    auto mapped = storage::MapSession(path, &pool);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ(expected, mapped->AnswerAll(*workload))
        << threads << " threads";
  }
}

// The ISA determinism sweep (docs/DETERMINISM.md, "ISA levels"): with
// PRIVELET_ISA forced to every kernel level the host supports, publishes
// must produce byte-identical PVLS snapshot files and bit-identical
// workload answers across thread counts, and the released values must
// equal the per-line reference. The dispatch level — like the pool — is
// purely a performance knob; a single differing bit here means a vector
// kernel reordered someone's float operations.
TEST(PublishDeterminismTest, IsaSweepSnapshotsAndAnswersAreInvariant) {
  const data::Schema schema = MultiChunkSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 17);
  mechanism::PriveletPlusMechanism mech({"Nom"});

  query::WorkloadOptions wopts;
  wopts.num_queries = 200;
  auto workload = query::GenerateWorkload(schema, wopts);
  ASSERT_TRUE(workload.ok());

  const matrix::FrequencyMatrix per_line =
      reference::PublishPrivelet(schema, {"Nom"}, m, 0.8, 57);
  const auto publish_bytes = [&](common::ThreadPool* pool,
                                 std::vector<double>* answers) {
    mech.set_thread_pool(pool);
    auto session = query::PublishingSession::Publish(
        schema, mech, m, /*epsilon=*/0.8, /*seed=*/57, pool);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    mech.set_thread_pool(nullptr);
    EXPECT_EQ(TableBytes(per_line), TableBytes(*session));
    const std::string path = testing::TempDir() + "/det_isa.pvls";
    EXPECT_TRUE(storage::SaveSession(path, *session).ok());
    if (answers != nullptr) *answers = session->AnswerAll(*workload);
    return FileBytes(path);
  };

  // Reference: forced-scalar serial publish.
  std::vector<double> expected;
  std::string reference_bytes;
  {
    const testutil::ScopedIsa forced(simd::IsaLevel::kScalar);
    reference_bytes = publish_bytes(nullptr, &expected);
  }
  ASSERT_FALSE(reference_bytes.empty());

  for (int lvl = 0; lvl <= static_cast<int>(simd::DetectBestIsa()); ++lvl) {
    const auto level = static_cast<simd::IsaLevel>(lvl);
    const std::string name(simd::IsaLevelName(level));
    const testutil::ScopedIsa forced(level);
    std::vector<double> answers;
    EXPECT_EQ(reference_bytes, publish_bytes(nullptr, &answers))
        << "serial, isa " << name;
    EXPECT_EQ(expected, answers) << "isa " << name;
    for (const std::size_t threads : kPoolSizes) {
      common::ThreadPool pool(threads);
      EXPECT_EQ(reference_bytes, publish_bytes(&pool, nullptr))
          << threads << " threads, isa " << name;
    }
  }
}

// The planner sweep: the mechanism decision is a pure function of
// (schema, workload, ε) — replanning reproduces the ranking, ids, and
// variances exactly — and an auto-planned release (plan attached, so the
// snapshot has a plan section) stays byte-identical across thread counts and
// forced ISA levels, exactly like plan-less releases. The plan section
// is provenance, never noise input.
TEST(PublishDeterminismTest, AutoPlannedReleasesInvariantAcrossThreadsAndIsa) {
  const data::Schema schema = MultiChunkSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 23);
  query::WorkloadOptions wopts;
  wopts.num_queries = 64;
  wopts.seed = 5;
  auto workload = query::GenerateWorkload(schema, wopts);
  ASSERT_TRUE(workload.ok());

  auto plan =
      analysis::PlanMechanismForWorkload(schema, *workload, /*epsilon=*/0.8);
  ASSERT_TRUE(plan.ok());
  auto replay =
      analysis::PlanMechanismForWorkload(schema, *workload, /*epsilon=*/0.8);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(plan->ranked.size(), replay->ranked.size());
  for (std::size_t i = 0; i < plan->ranked.size(); ++i) {
    EXPECT_EQ(plan->ranked[i].id, replay->ranked[i].id) << "rank " << i;
    // Exact equality: the scoring must be a deterministic float
    // computation, not merely a stable ordering.
    EXPECT_EQ(plan->ranked[i].expected_variance,
              replay->ranked[i].expected_variance)
        << "rank " << i;
  }
  EXPECT_EQ(plan->ToRecord(), replay->ToRecord());

  const query::PlanRecord record = plan->ToRecord();
  const auto make_mechanism = [&]() -> std::unique_ptr<mechanism::Mechanism> {
    if (plan->chosen.id == "basic") {
      return std::make_unique<mechanism::BasicMechanism>();
    }
    if (plan->chosen.id == "hay") {
      return std::make_unique<mechanism::HayHierarchicalMechanism>();
    }
    return std::make_unique<mechanism::PriveletPlusMechanism>(
        plan->chosen.sa_names);
  };
  const auto publish_bytes = [&](common::ThreadPool* pool) {
    const auto mech = make_mechanism();
    mech->set_thread_pool(pool);
    auto session = query::PublishingSession::Publish(
        schema, *mech, m, /*epsilon=*/0.8, /*seed=*/57, pool);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    session->set_plan(record);
    const std::string path = testing::TempDir() + "/det_autoplan.pvls";
    EXPECT_TRUE(storage::SaveSession(path, *session).ok());
    return FileBytes(path);
  };

  // Reference: forced-scalar serial publish. The plan must be in the
  // reference file's plan section for the byte comparisons to cover it.
  std::string reference_bytes;
  {
    const testutil::ScopedIsa forced(simd::IsaLevel::kScalar);
    reference_bytes = publish_bytes(nullptr);
  }
  ASSERT_FALSE(reference_bytes.empty());
  {
    auto info =
        storage::InspectSnapshot(testing::TempDir() + "/det_autoplan.pvls");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->version, 4u);
    ASSERT_TRUE(info->plan.has_value());
    EXPECT_EQ(*info->plan, record);
  }

  for (int lvl = 0; lvl <= static_cast<int>(simd::DetectBestIsa()); ++lvl) {
    const auto level = static_cast<simd::IsaLevel>(lvl);
    const std::string name(simd::IsaLevelName(level));
    const testutil::ScopedIsa forced(level);
    EXPECT_EQ(reference_bytes, publish_bytes(nullptr))
        << "serial, isa " << name;
    for (const std::size_t threads : kPoolSizes) {
      common::ThreadPool pool(threads);
      EXPECT_EQ(reference_bytes, publish_bytes(&pool))
          << threads << " threads, isa " << name;
    }
  }
}

TEST(NoiseDeterminismTest, DrawsDependOnlyOnIndex) {
  // Values spread over several pool chunks, processed with and without
  // pools: the noise vector must be identical, and a shorter vector must
  // get exactly the prefix of the longer one's draws.
  const std::size_t n = 3 * 16384 + 123;
  const rng::NoiseKey key = rng::NoiseKey::FromSeed(77);
  std::vector<double> serial(n, 0.0);
  mechanism::AddLaplaceNoise(serial, 2.0, key, nullptr);

  for (const std::size_t threads : kPoolSizes) {
    common::ThreadPool pool(threads);
    std::vector<double> parallel(n, 0.0);
    mechanism::AddLaplaceNoise(parallel, 2.0, key, &pool);
    EXPECT_EQ(serial, parallel) << threads << " threads";
  }

  std::vector<double> single(100, 0.0);
  mechanism::AddLaplaceNoise(single, 2.0, key, nullptr);
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i], serial[i]) << "prefix mismatch at " << i;
  }
}

}  // namespace
}  // namespace privelet

// The golden release: a fixed cube published under a fixed seed, pinned
// by checksum and by the hash of its bytes.
namespace privelet::matrix {
namespace {

data::Schema CubeSchema() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("X", 4));
  attrs.push_back(data::Attribute::Nominal(
      "G", data::Hierarchy::Balanced({2, 3}).value()));
  attrs.push_back(data::Attribute::Ordinal("Z", 2));
  return data::Schema(std::move(attrs));
}

// Baseline re-recorded when the noise moved to the counter-based ChaCha20
// stream with the project's own Log (identical at every ISA level);
// re-record consciously if the pipeline's deterministic behaviour is
// intentionally changed.
double GoldenChecksum() { return 2801.6155818910452; }

TEST(GoldenRegressionTest, PublishIsStableAcrossRefactors) {
  // Pins the full deterministic pipeline (generator seeding, transform
  // order, noise stream consumption). If this test fails after a
  // refactor, published releases are no longer reproducible from seeds —
  // either fix the regression or consciously re-baseline.
  const data::Schema schema = CubeSchema();
  FrequencyMatrix m(schema.DomainSizes());
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(i % 7);
  }
  mechanism::PriveletMechanism privelet;
  auto noisy = privelet.Publish(schema, m, 1.0, 2010);
  ASSERT_TRUE(noisy.ok());
  double checksum = 0.0;
  for (std::size_t i = 0; i < noisy->size(); ++i) {
    checksum += (*noisy)[i] * static_cast<double>(i + 1);
  }
  EXPECT_NEAR(checksum, GoldenChecksum(), 1e-6);
}

// FNV-1a 64 of the bytes of the release above, recorded with it.
std::uint64_t GoldenReleaseHash() { return 0x9b0073cf7632489eULL; }

TEST(GoldenRegressionTest, ReleaseBytesAreStable) {
  // The checksum above tolerates 1e-6, so a build that rounds one step
  // differently (say, one that contracts a * b + c into an FMA) still
  // passes it. The hash pins every bit of the same release.
  const data::Schema schema = CubeSchema();
  FrequencyMatrix m(schema.DomainSizes());
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(i % 7);
  }
  mechanism::PriveletMechanism privelet;
  auto noisy = privelet.Publish(schema, m, 1.0, 2010);
  ASSERT_TRUE(noisy.ok());
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double v : noisy->values()) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (const unsigned char b : bytes) {
      hash = (hash ^ b) * 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(hash, GoldenReleaseHash()) << std::hex << hash;
}

}  // namespace
}  // namespace privelet::matrix
