// The threading determinism contract: for a fixed seed, every publishing
// mechanism and both directions of the HN transform produce bit-identical
// output whatever the thread pool — none (serial), 1, 2, or 8 workers.
// The schemas are sized so the coefficient/cell spaces span several noise
// shards (kNoiseShardSize = 8192), exercising the multi-stream paths, not
// just the single-shard degenerate case.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "privelet/analysis/mechanism_planner.h"
#include "privelet/common/thread_pool.h"
#include "privelet/data/attribute.h"
#include "privelet/data/hierarchy.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/engine.h"
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

namespace privelet {
namespace {

constexpr std::size_t kPoolSizes[] = {1, 2, 8};

// Ordinal 1024 x nominal {4,4}: 16384 cells, 1024 * 21 = 21504 HN
// coefficients — both above one noise shard.
data::Schema MultiShardSchema() {
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
  const data::Schema schema = MultiShardSchema();
  ExpectPublishInvariantUnderThreads(basic, schema, RandomMatrix(schema, 1));
}

TEST(PublishDeterminismTest, PriveletAcrossThreadCounts) {
  mechanism::PriveletMechanism privelet;
  const data::Schema schema = MultiShardSchema();
  ExpectPublishInvariantUnderThreads(privelet, schema,
                                     RandomMatrix(schema, 2));
}

TEST(PublishDeterminismTest, PriveletPlusAcrossThreadCounts) {
  mechanism::PriveletPlusMechanism plus({"Nom"});
  const data::Schema schema = MultiShardSchema();
  ExpectPublishInvariantUnderThreads(plus, schema, RandomMatrix(schema, 3));
}

TEST(PublishDeterminismTest, HayAcrossThreadCounts) {
  mechanism::HayHierarchicalMechanism hay;
  const data::Schema schema = WideOrdinalSchema();
  ExpectPublishInvariantUnderThreads(hay, schema, RandomMatrix(schema, 4));
}

// Tile sweep: the naive serial release is the reference; the tiled engine
// must reproduce it bit-for-bit for every (tile size, thread count)
// combination — the engine, its panel width, and the pool are all pure
// performance knobs.
TEST(PublishDeterminismTest, TileSweepMatchesNaiveSerialRelease) {
  constexpr std::size_t kTileSizes[] = {1, 8, 64};
  mechanism::PriveletPlusMechanism mech({"Nom"});
  const data::Schema schema = MultiShardSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 9);

  mech.set_engine_options(
      matrix::MakeEngineOptions(matrix::LineEngine::kNaive));
  auto reference = mech.Publish(schema, m, /*epsilon=*/0.8, /*seed=*/57);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (const std::size_t tile : kTileSizes) {
    mech.set_engine_options(
        matrix::MakeEngineOptions(matrix::LineEngine::kTiled, tile));
    auto serial = mech.Publish(schema, m, 0.8, 57);
    ASSERT_TRUE(serial.ok());
    EXPECT_TRUE(matrix::ValuesEqual(reference->values(), serial->values()))
        << "tile " << tile << ", serial";
    for (const std::size_t threads : kPoolSizes) {
      common::ThreadPool pool(threads);
      mech.set_thread_pool(&pool);
      auto parallel = mech.Publish(schema, m, 0.8, 57);
      ASSERT_TRUE(parallel.ok());
      EXPECT_TRUE(matrix::ValuesEqual(reference->values(), parallel->values()))
          << "tile " << tile << ", " << threads << " threads";
      mech.set_thread_pool(nullptr);
    }
  }
}

TEST(HnTransformDeterminismTest, ForwardAndInverseAcrossThreadCounts) {
  const data::Schema schema = MultiShardSchema();
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
  const data::Schema schema = MultiShardSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 6);
  const matrix::PrefixSumTable<double> serial(m);
  for (const std::size_t threads : kPoolSizes) {
    common::ThreadPool pool(threads);
    const matrix::PrefixSumTable<double> pooled(m, &pool);
    ASSERT_EQ(0, std::memcmp(serial.raw_sums().data(),
                             pooled.raw_sums().data(),
                             serial.raw_sums().size_bytes()))
        << threads << " threads";
  }
}

// Extends the sweep across the process boundary: a release published
// under any thread count serializes to the byte-identical snapshot file
// (same engine options => same bytes, CRC included), and releases
// published under different engines/tile sizes — whose snapshots differ
// only in the recorded engine options — load back into sessions that
// answer bit-identically.
TEST(PublishDeterminismTest, SnapshotFilesInvariantAcrossThreadsAndEngines) {
  const data::Schema schema = MultiShardSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 11);
  mechanism::PriveletPlusMechanism mech({"Nom"});

  const auto save = [&](common::ThreadPool* pool,
                        const matrix::EngineOptions& options,
                        const std::string& name) {
    mech.set_thread_pool(pool);
    mech.set_engine_options(options);
    auto session = query::PublishingSession::Publish(
        schema, mech, m, /*epsilon=*/0.8, /*seed=*/57, pool, options);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    const std::string path = testing::TempDir() + "/" + name;
    EXPECT_TRUE(storage::SaveSession(path, *session).ok());
    mech.set_thread_pool(nullptr);
    return path;
  };
  const auto file_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };

  const matrix::EngineOptions tiled =
      matrix::MakeEngineOptions(matrix::LineEngine::kTiled);
  const std::string ref_path = save(nullptr, tiled, "det_ref.pvls");
  const std::string ref_bytes = file_bytes(ref_path);
  ASSERT_FALSE(ref_bytes.empty());

  // Same engine options, any pool size: byte-identical snapshot files.
  for (const std::size_t threads : kPoolSizes) {
    common::ThreadPool pool(threads);
    const std::string path = save(&pool, tiled, "det_threads.pvls");
    EXPECT_EQ(ref_bytes, file_bytes(path)) << threads << " threads";
  }

  // Different engines/tile sizes: the recorded options differ, but the
  // loaded sessions must answer a workload bit-identically.
  query::WorkloadOptions wopts;
  wopts.num_queries = 300;
  auto workload = query::GenerateWorkload(schema, wopts);
  ASSERT_TRUE(workload.ok());
  auto reference = storage::LoadSession(ref_path);
  ASSERT_TRUE(reference.ok());
  const std::vector<double> expected = reference->AnswerAll(*workload);
  for (const matrix::EngineOptions& options :
       {matrix::MakeEngineOptions(matrix::LineEngine::kNaive),
        matrix::MakeEngineOptions(matrix::LineEngine::kTiled, 1),
        matrix::MakeEngineOptions(matrix::LineEngine::kTiled, 8)}) {
    common::ThreadPool pool(2);
    const std::string path = save(&pool, options, "det_engine.pvls");
    auto loaded = storage::LoadSession(path, &pool);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(matrix::ValuesEqual(reference->published().values(),
                                    loaded->published().values()));
    EXPECT_EQ(expected, loaded->AnswerAll(*workload));
  }
}

// The out-of-core contract: a streamed publish (panels staged through
// mmap scratch files under a memory budget far below the release size)
// must produce the byte-identical PVLS file of the in-core publish with
// the same engine options — across engines, tile sizes, and thread
// counts — and the returned session must answer the same workload
// bit-identically. The budget is a pure operational knob, like the pool.
TEST(PublishDeterminismTest, StreamedPublishMatchesInCoreByteForByte) {
  const data::Schema schema = MultiShardSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 21);
  mechanism::PriveletPlusMechanism mech({"Nom"});

  query::WorkloadOptions wopts;
  wopts.num_queries = 200;
  auto workload = query::GenerateWorkload(schema, wopts);
  ASSERT_TRUE(workload.ok());

  const auto file_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };

  // 16384 cells = 128 KiB of doubles (plus a 256 KiB table): a 64 KiB
  // budget forces genuine out-of-core staging in every stage.
  constexpr std::size_t kBudget = std::size_t{1} << 16;
  constexpr std::size_t kThreadCounts[] = {0, 2, 8};  // 0 = serial

  for (const matrix::EngineOptions& base :
       {matrix::MakeEngineOptions(matrix::LineEngine::kTiled),
        matrix::MakeEngineOptions(matrix::LineEngine::kNaive),
        matrix::MakeEngineOptions(matrix::LineEngine::kTiled, 8)}) {
    for (const std::size_t threads : kThreadCounts) {
      std::unique_ptr<common::ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<common::ThreadPool>(threads);
      const std::string tag =
          (base.engine == matrix::LineEngine::kTiled ? "tiled" : "naive") +
          std::string("/tile ") + std::to_string(base.tile_lines) + "/" +
          std::to_string(threads) + " threads";

      mech.set_thread_pool(pool.get());
      mech.set_engine_options(base);
      auto in_core = query::PublishingSession::Publish(
          schema, mech, m, /*epsilon=*/0.8, /*seed=*/57, pool.get(), base);
      ASSERT_TRUE(in_core.ok()) << in_core.status().ToString();
      EXPECT_EQ(query::PublishMode::kInCore,
                in_core->metadata().publish_mode);
      const std::string in_path = testing::TempDir() + "/det_incore.pvls";
      ASSERT_TRUE(storage::SaveSession(in_path, *in_core).ok());

      matrix::EngineOptions streamed_options = base;
      streamed_options.max_memory_bytes = kBudget;
      mech.set_engine_options(streamed_options);
      const std::string out_path = testing::TempDir() + "/det_streamed.pvls";
      auto streamed = storage::PublishToFile(out_path, schema, mech, m, 0.8,
                                             57, pool.get(), streamed_options);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString() << " " << tag;
      EXPECT_EQ(query::PublishMode::kStreamed,
                streamed->metadata().publish_mode);
      mech.set_thread_pool(nullptr);

      EXPECT_EQ(file_bytes(in_path), file_bytes(out_path)) << tag;
      EXPECT_TRUE(matrix::ValuesEqual(in_core->published().values(),
                                      streamed->published().values()))
          << tag;
      EXPECT_EQ(in_core->AnswerAll(*workload), streamed->AnswerAll(*workload))
          << tag;
    }
  }
}

// Extends the serving sweep across the mmap boundary: for releases
// published under every engine/tile combination, the zero-copy mapped
// session must answer bit-identically to the legacy copy-loaded session,
// under every pool size — the storage mode of the prefix table (owned
// copy vs. span view into the file) is a pure operational knob.
TEST(PublishDeterminismTest, MappedServingMatchesCopyLoadAcrossEnginesAndThreads) {
  const data::Schema schema = MultiShardSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 12);
  mechanism::PriveletPlusMechanism mech({"Nom"});

  query::WorkloadOptions wopts;
  wopts.num_queries = 300;
  auto workload = query::GenerateWorkload(schema, wopts);
  ASSERT_TRUE(workload.ok());

  std::vector<double> expected;  // pinned by the first configuration
  for (const matrix::EngineOptions& options :
       {matrix::MakeEngineOptions(matrix::LineEngine::kTiled),
        matrix::MakeEngineOptions(matrix::LineEngine::kNaive),
        matrix::MakeEngineOptions(matrix::LineEngine::kTiled, 8)}) {
    mech.set_engine_options(options);
    auto session = query::PublishingSession::Publish(
        schema, mech, m, /*epsilon=*/0.8, /*seed=*/57, nullptr, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    const std::string path = testing::TempDir() + "/det_mapped.pvls";
    ASSERT_TRUE(storage::SaveSession(path, *session).ok());
    if (expected.empty()) expected = session->AnswerAll(*workload);

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
}

// The ISA determinism sweep (docs/DETERMINISM.md, "ISA levels"): with
// PRIVELET_ISA forced to every kernel level the host supports, publishes
// must produce byte-identical PVLS snapshot files and bit-identical
// workload answers across engines, tile sizes, and thread counts. The
// dispatch level — like the engine and the pool — is purely a
// performance knob; a single differing bit here means a vector kernel
// reordered someone's float operations.
TEST(PublishDeterminismTest, IsaSweepSnapshotsAndAnswersAreInvariant) {
  constexpr std::size_t kTileSizes[] = {1, 8, 64};
  const data::Schema schema = MultiShardSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema, 17);
  mechanism::PriveletPlusMechanism mech({"Nom"});

  query::WorkloadOptions wopts;
  wopts.num_queries = 200;
  auto workload = query::GenerateWorkload(schema, wopts);
  ASSERT_TRUE(workload.ok());

  const auto file_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto publish_bytes = [&](const matrix::EngineOptions& options,
                                 common::ThreadPool* pool,
                                 std::vector<double>* answers) {
    mech.set_thread_pool(pool);
    mech.set_engine_options(options);
    auto session = query::PublishingSession::Publish(
        schema, mech, m, /*epsilon=*/0.8, /*seed=*/57, pool, options);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    mech.set_thread_pool(nullptr);
    const std::string path = testing::TempDir() + "/det_isa.pvls";
    EXPECT_TRUE(storage::SaveSession(path, *session).ok());
    if (answers != nullptr) *answers = session->AnswerAll(*workload);
    return file_bytes(path);
  };

  // The engine configurations under sweep. Snapshot files embed the
  // engine options, so byte comparisons only hold within one
  // configuration; answers and published values must agree globally.
  std::vector<matrix::EngineOptions> configs = {
      matrix::MakeEngineOptions(matrix::LineEngine::kNaive)};
  for (const std::size_t tile : kTileSizes) {
    configs.push_back(
        matrix::MakeEngineOptions(matrix::LineEngine::kTiled, tile));
  }

  // Per-config reference: forced-scalar serial publish.
  ASSERT_EQ(0, setenv("PRIVELET_ISA", "scalar", 1));
  std::vector<double> expected;
  std::vector<std::string> references;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    std::vector<double> answers;
    references.push_back(publish_bytes(configs[c], nullptr, &answers));
    ASSERT_FALSE(references.back().empty());
    if (c == 0) {
      expected = answers;
    } else {
      EXPECT_EQ(expected, answers) << "scalar serial, config " << c;
    }
  }

  for (int lvl = 0; lvl <= static_cast<int>(simd::DetectBestIsa()); ++lvl) {
    const std::string name(
        simd::IsaLevelName(static_cast<simd::IsaLevel>(lvl)));
    ASSERT_EQ(0, setenv("PRIVELET_ISA", name.c_str(), 1));
    for (std::size_t c = 0; c < configs.size(); ++c) {
      std::vector<double> answers;
      EXPECT_EQ(references[c], publish_bytes(configs[c], nullptr, &answers))
          << "config " << c << " serial, isa " << name;
      EXPECT_EQ(expected, answers) << "config " << c << ", isa " << name;
      for (const std::size_t threads : kPoolSizes) {
        common::ThreadPool pool(threads);
        EXPECT_EQ(references[c], publish_bytes(configs[c], &pool, nullptr))
            << "config " << c << ", " << threads << " threads, isa " << name;
      }
    }
  }
  ASSERT_EQ(0, unsetenv("PRIVELET_ISA"));

  // EngineOptions::isa overrides the environment the same way (the isa
  // request is not part of the snapshot's recorded options, so bytes stay
  // comparable within the tile-64 configuration).
  matrix::EngineOptions forced =
      matrix::MakeEngineOptions(matrix::LineEngine::kTiled, 64);
  forced.isa = simd::IsaChoice::kScalar;
  EXPECT_EQ(references[3], publish_bytes(forced, nullptr, nullptr))
      << "options-forced scalar";
  forced.isa = simd::IsaChoice::kAvx512;  // clamps to the host's best
  EXPECT_EQ(references[3], publish_bytes(forced, nullptr, nullptr))
      << "options-forced best";
}

// The planner sweep: the mechanism decision is a pure function of
// (schema, workload, ε) — replanning reproduces the ranking, ids, and
// variances exactly — and an auto-planned release (plan attached, so the
// snapshot is PVLS v3) stays byte-identical across engines, thread
// counts, and forced ISA levels, exactly like plan-less releases. The
// plan section is provenance, never noise input.
TEST(PublishDeterminismTest, AutoPlannedReleasesInvariantAcrossEnginesThreadsAndIsa) {
  const data::Schema schema = MultiShardSchema();
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
  const auto file_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto publish_bytes = [&](const matrix::EngineOptions& options,
                                 common::ThreadPool* pool) {
    const auto mech = make_mechanism();
    mech->set_thread_pool(pool);
    mech->set_engine_options(options);
    auto session = query::PublishingSession::Publish(
        schema, *mech, m, /*epsilon=*/0.8, /*seed=*/57, pool, options);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    session->set_plan(record);
    const std::string path = testing::TempDir() + "/det_autoplan.pvls";
    EXPECT_TRUE(storage::SaveSession(path, *session).ok());
    return file_bytes(path);
  };

  const std::vector<matrix::EngineOptions> configs = {
      matrix::MakeEngineOptions(matrix::LineEngine::kNaive),
      matrix::MakeEngineOptions(matrix::LineEngine::kTiled, 64)};

  // Per-config reference: forced-scalar serial publish. The plan must be
  // in the reference file (v3) for the byte comparisons to cover it.
  ASSERT_EQ(0, setenv("PRIVELET_ISA", "scalar", 1));
  std::vector<std::string> references;
  for (const matrix::EngineOptions& options : configs) {
    references.push_back(publish_bytes(options, nullptr));
    ASSERT_FALSE(references.back().empty());
  }
  {
    auto info =
        storage::InspectSnapshot(testing::TempDir() + "/det_autoplan.pvls");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->version, 3u);
    ASSERT_TRUE(info->plan.has_value());
    EXPECT_EQ(*info->plan, record);
  }

  for (int lvl = 0; lvl <= static_cast<int>(simd::DetectBestIsa()); ++lvl) {
    const std::string name(
        simd::IsaLevelName(static_cast<simd::IsaLevel>(lvl)));
    ASSERT_EQ(0, setenv("PRIVELET_ISA", name.c_str(), 1));
    for (std::size_t c = 0; c < configs.size(); ++c) {
      EXPECT_EQ(references[c], publish_bytes(configs[c], nullptr))
          << "config " << c << " serial, isa " << name;
      for (const std::size_t threads : kPoolSizes) {
        common::ThreadPool pool(threads);
        EXPECT_EQ(references[c], publish_bytes(configs[c], &pool))
            << "config " << c << ", " << threads << " threads, isa " << name;
      }
    }
  }
  ASSERT_EQ(0, unsetenv("PRIVELET_ISA"));
}

TEST(NoiseShardDeterminismTest, ShardedDrawsDependOnlyOnIndex) {
  // Three shard widths of values, processed with and without pools: the
  // noise vector must be identical, and the first shard must reproduce
  // the plain Xoshiro sequence (legacy single-shard compatibility).
  const std::size_t n = mechanism::kNoiseShardSize * 3 + 123;
  std::vector<double> serial(n, 0.0);
  mechanism::AddLaplaceNoise(serial, 2.0, /*noise_seed=*/77, nullptr);

  for (const std::size_t threads : kPoolSizes) {
    common::ThreadPool pool(threads);
    std::vector<double> parallel(n, 0.0);
    mechanism::AddLaplaceNoise(parallel, 2.0, 77, &pool);
    EXPECT_EQ(serial, parallel) << threads << " threads";
  }

  std::vector<double> single(100, 0.0);
  mechanism::AddLaplaceNoise(single, 2.0, 77, nullptr);
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i], serial[i]) << "prefix mismatch at " << i;
  }
}

}  // namespace
}  // namespace privelet
