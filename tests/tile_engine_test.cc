// The tiled/naive engine contract: both line engines perform identical
// floating-point work per line, so HN transforms, prefix-sum tables, and
// whole published releases must be bit-identical between the engines for
// every tile size — including degenerate shapes (axes of size 1,
// non-power-of-two ordinal domains, single-axis matrices) and a 4-D cube
// mixing Haar, identity, and nominal axes. Also pins the TileBuffer
// gather/scatter round trip and the NoiseStreamCursor's index-for-index
// equivalence with the sharded noise loops.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "privelet/common/aligned_buffer.h"
#include "privelet/common/thread_pool.h"
#include "privelet/data/attribute.h"
#include "privelet/data/hierarchy.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/engine.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/matrix/prefix_sum.h"
#include "privelet/matrix/tile_buffer.h"
#include "privelet/mechanism/noise.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/wavelet/hn_transform.h"

namespace privelet {
namespace {

constexpr std::size_t kTileSizes[] = {1, 8, 64};

matrix::EngineOptions Tiled(std::size_t tile) {
  return matrix::MakeEngineOptions(matrix::LineEngine::kTiled, tile);
}

matrix::EngineOptions Naive() {
  return matrix::MakeEngineOptions(matrix::LineEngine::kNaive);
}

matrix::FrequencyMatrix RandomMatrix(std::vector<std::size_t> dims,
                                     std::uint64_t seed) {
  matrix::FrequencyMatrix m(std::move(dims));
  rng::Xoshiro256pp gen(seed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 97));
  }
  return m;
}

// The awkward-shape gallery: size-1 axes in every position, non-power-of-
// two ordinal domains, 1-D edge cases, and shapes with non-trivial strides
// on both sides of the transformed axis.
std::vector<data::Schema> AwkwardSchemas() {
  std::vector<data::Schema> schemas;
  auto ordinal = [](const char* name, std::size_t n) {
    return data::Attribute::Ordinal(name, n);
  };
  {
    std::vector<data::Attribute> a;
    a.push_back(ordinal("A", 1));
    schemas.emplace_back(std::move(a));
  }
  {
    std::vector<data::Attribute> a;
    a.push_back(ordinal("A", 37));
    schemas.emplace_back(std::move(a));
  }
  {
    std::vector<data::Attribute> a;
    a.push_back(ordinal("A", 1));
    a.push_back(ordinal("B", 13));
    a.push_back(ordinal("C", 1));
    schemas.emplace_back(std::move(a));
  }
  {
    std::vector<data::Attribute> a;
    a.push_back(ordinal("A", 5));
    a.push_back(ordinal("B", 1));
    a.push_back(ordinal("C", 9));
    schemas.emplace_back(std::move(a));
  }
  {
    std::vector<data::Attribute> a;
    a.push_back(ordinal("A", 21));
    a.push_back(data::Attribute::Nominal(
        "Nom", data::Hierarchy::Balanced({3, 2}).value()));
    schemas.emplace_back(std::move(a));
  }
  return schemas;
}

// 4-D cube mixing a Haar axis, an identity axis (via the SA set), a
// nominal axis, and a non-power-of-two Haar axis.
data::Schema MixedCubeSchema() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Ord", 16));
  attrs.push_back(data::Attribute::Ordinal("Sa", 6));
  attrs.push_back(data::Attribute::Nominal(
      "Nom", data::Hierarchy::Balanced({4, 4}).value()));
  attrs.push_back(data::Attribute::Ordinal("Odd", 11));
  return data::Schema(std::move(attrs));
}

void ExpectEnginesAgree(const data::Schema& schema,
                        const std::vector<std::size_t>& identity_axes,
                        std::uint64_t seed) {
  auto transform = wavelet::HnTransform::Create(schema, identity_axes);
  ASSERT_TRUE(transform.ok()) << transform.status().ToString();
  const matrix::FrequencyMatrix m = RandomMatrix(schema.DomainSizes(), seed);

  auto naive_fwd = transform->Forward(m, nullptr, Naive());
  ASSERT_TRUE(naive_fwd.ok());
  auto naive_inv = transform->Inverse(*naive_fwd, nullptr, Naive());
  ASSERT_TRUE(naive_inv.ok());

  for (const std::size_t tile : kTileSizes) {
    auto fwd = transform->Forward(m, nullptr, Tiled(tile));
    ASSERT_TRUE(fwd.ok());
    EXPECT_TRUE(
        matrix::ValuesEqual(naive_fwd->coeffs.values(), fwd->coeffs.values()))
        << "forward, tile " << tile;
    auto inv = transform->Inverse(*fwd, nullptr, Tiled(tile));
    ASSERT_TRUE(inv.ok());
    EXPECT_TRUE(matrix::ValuesEqual(naive_inv->values(), inv->values()))
        << "inverse, tile " << tile;
  }

  // The round trip reconstructs the data (noise-free coefficients).
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR(m[i], (*naive_inv)[i], 1e-6) << "round trip at " << i;
  }
}

TEST(TileEngineTest, AwkwardShapesAgreeAcrossEnginesAndTiles) {
  std::uint64_t seed = 11;
  for (const data::Schema& schema : AwkwardSchemas()) {
    SCOPED_TRACE(schema.attribute(0).name() + std::string(" d=") +
                 std::to_string(schema.num_attributes()));
    ExpectEnginesAgree(schema, {}, seed++);
  }
}

TEST(TileEngineTest, MixedCubeAgreesAcrossEnginesAndTiles) {
  ExpectEnginesAgree(MixedCubeSchema(), /*identity_axes=*/{1}, 29);
}

void ExpectPublishBitIdenticalAcrossEngines(
    const data::Schema& schema, mechanism::PriveletPlusMechanism& mech,
    std::uint64_t data_seed) {
  const matrix::FrequencyMatrix m = RandomMatrix(schema.DomainSizes(),
                                                 data_seed);
  mech.set_engine_options(Naive());
  auto reference = mech.Publish(schema, m, /*epsilon=*/0.9, /*seed=*/41);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (const std::size_t tile : kTileSizes) {
    mech.set_engine_options(Tiled(tile));
    auto release = mech.Publish(schema, m, 0.9, 41);
    ASSERT_TRUE(release.ok());
    EXPECT_TRUE(matrix::ValuesEqual(reference->values(), release->values()))
        << "tile " << tile;
  }
}

TEST(TileEngineTest, PublishIsBitIdenticalAcrossEnginesAndTiles) {
  mechanism::PriveletPlusMechanism mech({"Sa"});
  ExpectPublishBitIdenticalAcrossEngines(MixedCubeSchema(), mech, 3);
}

TEST(TileEngineTest, PublishWithNominalLastAxisExercisesStagedRefine) {
  // Last axis nominal (and no SA): the first inverse pass runs the staged
  // slab branch — copy panel, fused noise, per-line Refine — which must
  // still match the naive separate-sweep reference bit-for-bit.
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Ord", 24));
  attrs.push_back(data::Attribute::Nominal(
      "Nom", data::Hierarchy::Balanced({4, 4}).value()));
  const data::Schema schema(std::move(attrs));
  mechanism::PriveletPlusMechanism mech;
  ExpectPublishBitIdenticalAcrossEngines(schema, mech, 13);
}

TEST(TileEngineTest, PrefixSumsAgreeAcrossEnginesAndTiles) {
  for (const auto& dims : std::vector<std::vector<std::size_t>>{
           {1}, {37}, {1, 13, 1}, {5, 1, 9}, {16, 6, 21, 11}}) {
    const matrix::FrequencyMatrix m = RandomMatrix(dims, 7);
    const matrix::PrefixSumTable<double> naive(m, nullptr, Naive());
    for (const std::size_t tile : kTileSizes) {
      const matrix::PrefixSumTable<double> tiled(m, nullptr, Tiled(tile));
      ASSERT_EQ(0, std::memcmp(naive.raw_sums().data(),
                               tiled.raw_sums().data(),
                               naive.raw_sums().size_bytes()))
          << "tile " << tile;
    }
  }
}

TEST(TileEngineTest, TileBufferRoundTripsEveryAxis) {
  const matrix::FrequencyMatrix m = RandomMatrix({5, 4, 6}, 23);
  for (std::size_t axis = 0; axis < m.num_dims(); ++axis) {
    for (const std::size_t tile : {1u, 3u, 7u, 64u}) {
      matrix::FrequencyMatrix copy(m.dims());
      matrix::TileBuffer buffer;
      const std::size_t lines = m.NumLines(axis);
      for (std::size_t first = 0; first < lines; first += tile) {
        const std::size_t count = std::min<std::size_t>(tile, lines - first);
        buffer.Gather(m, axis, first, count);
        // The panel is interleaved: element k of panel line b at
        // panel[k * count + b].
        for (std::size_t b = 0; b < count; ++b) {
          std::vector<double> line(m.dim(axis));
          m.GatherLine(axis, first + b, line.data());
          for (std::size_t k = 0; k < line.size(); ++k) {
            ASSERT_EQ(line[k], buffer.panel()[k * count + b])
                << "axis " << axis << " line " << first + b << " k " << k;
          }
        }
        buffer.Scatter(copy, axis, first, count);
      }
      EXPECT_TRUE(matrix::ValuesEqual(m.values(), copy.values()))
          << "axis " << axis;
    }
  }
}

TEST(TileEngineTest, PanelsScratchAndMatrixStorageAre64ByteAligned) {
  // The vector kernels are written with unaligned loads, but the storage
  // contract (common/aligned_buffer.h) promises panels, pooled scratch,
  // and vector-backed matrix values on 64-byte boundaries — one cache
  // line, and the widest register the dispatcher selects — so panel rows
  // never split a line they don't have to. Growth must re-establish the
  // alignment, not just the first allocation.
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
  };
  matrix::TileBuffer buffer;
  for (const std::size_t line_len : {1u, 7u, 64u, 1000u}) {
    EXPECT_TRUE(aligned(buffer.Prepare(line_len, 3))) << line_len;
  }
  const matrix::FrequencyMatrix m = RandomMatrix({5, 4, 6}, 23);
  buffer.Gather(m, /*axis=*/1, /*first=*/0, /*count=*/2);
  EXPECT_TRUE(aligned(buffer.panel()));

  common::AlignedBuffer<double> scratch;
  for (const std::size_t n : {3u, 100u, 4097u}) {
    EXPECT_TRUE(aligned(scratch.Grow(n))) << n;
  }

  EXPECT_TRUE(aligned(m.values().data()));
  EXPECT_TRUE(aligned(
      matrix::FrequencyMatrix::Uninitialized({9, 3}).values().data()));
}

TEST(TileEngineTest, NoiseCursorMatchesShardedLoops) {
  // Three shards and change; scattered monotone ranges must reproduce the
  // AddLaplaceNoise draws index-for-index, whatever the chunk boundaries.
  const std::size_t n = mechanism::kNoiseShardSize * 3 + 123;
  std::vector<double> reference(n, 0.0);
  mechanism::AddLaplaceNoise(reference, 1.5, /*noise_seed=*/99, nullptr);

  const std::vector<rng::Xoshiro256pp> streams =
      rng::MakeJumpStreams(99, mechanism::NumNoiseShards(n));
  // Ranges deliberately straddle shard boundaries and leave gaps (gaps
  // within a cursor's shard trigger the skip path).
  const std::size_t starts[] = {0, 500, mechanism::kNoiseShardSize - 3,
                                2 * mechanism::kNoiseShardSize + 77, n - 10};
  for (std::size_t chunk = 0; chunk + 1 < 5; ++chunk) {
    mechanism::NoiseStreamCursor cursor(streams);
    for (std::size_t i = starts[chunk]; i < starts[chunk + 1]; i += 2) {
      EXPECT_EQ(reference[i], cursor.LaplaceAt(i, 1.5)) << "index " << i;
    }
  }
}

TEST(TileEngineTest, TiledPublishDeterministicUnderThreads) {
  const data::Schema schema = MixedCubeSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema.DomainSizes(), 5);
  mechanism::PriveletPlusMechanism mech;
  mech.set_engine_options(Tiled(8));
  auto serial = mech.Publish(schema, m, 1.1, 77);
  ASSERT_TRUE(serial.ok());
  for (const std::size_t threads : {2u, 8u}) {
    common::ThreadPool pool(threads);
    mech.set_thread_pool(&pool);
    auto parallel = mech.Publish(schema, m, 1.1, 77);
    ASSERT_TRUE(parallel.ok());
    EXPECT_TRUE(matrix::ValuesEqual(serial->values(), parallel->values()))
        << threads << " threads";
    mech.set_thread_pool(nullptr);
  }
}

}  // namespace
}  // namespace privelet
