// The line-engine contract: the panel, strided and fused-noise paths do
// the same floating-point work per line as the per-line reference
// (reference/per_line_engine.h), so HN transforms, prefix-sum tables, and
// whole published releases must be bit-identical to it at every ISA level
// — including degenerate shapes (axes of size 1, non-power-of-two ordinal
// domains, single-axis matrices) and a 4-D cube mixing Haar, identity, and
// nominal axes. Also pins the TileBuffer gather/scatter round trip.
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
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/simd/dispatch.h"
#include "privelet/wavelet/hn_transform.h"
#include "reference/per_line_engine.h"
#include "scoped_isa.h"

namespace privelet {
namespace {

// Every kernel level the host runs; every level runs the strided axes
// through the batched kernel on the matrices themselves.
std::vector<simd::IsaLevel> HostLevels() {
  std::vector<simd::IsaLevel> levels;
  for (int lvl = 0; lvl <= static_cast<int>(simd::DetectBestIsa()); ++lvl) {
    levels.push_back(static_cast<simd::IsaLevel>(lvl));
  }
  return levels;
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
  {
    // More lines than one panel (kTileLines) on the strided axis, with a
    // partial last panel.
    std::vector<data::Attribute> a;
    a.push_back(ordinal("A", 12));
    a.push_back(ordinal("B", 150));
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

void ExpectTransformsMatchReference(
    const data::Schema& schema, const std::vector<std::size_t>& identity_axes,
    std::uint64_t seed) {
  auto transform = wavelet::HnTransform::Create(schema, identity_axes);
  ASSERT_TRUE(transform.ok()) << transform.status().ToString();
  const matrix::FrequencyMatrix m = RandomMatrix(schema.DomainSizes(), seed);

  const wavelet::HnCoefficients ref_fwd = reference::Forward(*transform, m);
  const matrix::FrequencyMatrix ref_inv =
      reference::Inverse(*transform, ref_fwd.coeffs);

  for (const simd::IsaLevel level : HostLevels()) {
    const testutil::ScopedIsa forced(level);
    const int isa = static_cast<int>(level);
    auto fwd = transform->Forward(m, nullptr);
    ASSERT_TRUE(fwd.ok());
    EXPECT_TRUE(
        matrix::ValuesEqual(ref_fwd.coeffs.values(), fwd->coeffs.values()))
        << "forward, isa " << isa;
    auto inv = transform->Inverse(*fwd, nullptr);
    ASSERT_TRUE(inv.ok());
    EXPECT_TRUE(matrix::ValuesEqual(ref_inv.values(), inv->values()))
        << "inverse, isa " << isa;
  }

  // The round trip reconstructs the data (noise-free coefficients).
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR(m[i], ref_inv[i], 1e-6) << "round trip at " << i;
  }
}

TEST(TileEngineTest, AwkwardShapesMatchPerLineReference) {
  std::uint64_t seed = 11;
  for (const data::Schema& schema : AwkwardSchemas()) {
    SCOPED_TRACE(schema.attribute(0).name() + std::string(" d=") +
                 std::to_string(schema.num_attributes()));
    ExpectTransformsMatchReference(schema, {}, seed++);
  }
}

TEST(TileEngineTest, MixedCubeMatchesPerLineReference) {
  ExpectTransformsMatchReference(MixedCubeSchema(), /*identity_axes=*/{1}, 29);
}

void ExpectPublishMatchesReference(const data::Schema& schema,
                                   const std::vector<std::string>& sa_names,
                                   std::uint64_t data_seed) {
  const matrix::FrequencyMatrix m = RandomMatrix(schema.DomainSizes(),
                                                 data_seed);
  const matrix::FrequencyMatrix expected = reference::PublishPrivelet(
      schema, sa_names, m, /*epsilon=*/0.9, /*seed=*/41);
  mechanism::PriveletPlusMechanism mech(sa_names);
  for (const simd::IsaLevel level : HostLevels()) {
    const testutil::ScopedIsa forced(level);
    auto release = mech.Publish(schema, m, 0.9, 41);
    ASSERT_TRUE(release.ok()) << release.status().ToString();
    EXPECT_TRUE(matrix::ValuesEqual(expected.values(), release->values()))
        << "isa " << static_cast<int>(level);
  }
}

TEST(TileEngineTest, FusedNoisePublishMatchesPerLineReference) {
  ExpectPublishMatchesReference(MixedCubeSchema(), {"Sa"}, 3);
}

TEST(TileEngineTest, PublishWithNominalLastAxisExercisesStagedRefine) {
  // Last axis nominal (and no SA): the first inverse pass runs the staged
  // slab branch — copy line, fused noise, per-line Refine — which must
  // still match the reference's separate noise sweep bit-for-bit.
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Ord", 24));
  attrs.push_back(data::Attribute::Nominal(
      "Nom", data::Hierarchy::Balanced({4, 4}).value()));
  ExpectPublishMatchesReference(data::Schema(std::move(attrs)), {}, 13);
}

TEST(TileEngineTest, AwkwardShapesPublishMatchPerLineReference) {
  // Coefficient lines of 1, 10, 16, 64 and 256 along the last axis: the fused
  // noise's draw buffer spans several lines, starts off the 8-draw block
  // grid, and is cut at the end of the matrix.
  std::uint64_t seed = 31;
  for (const data::Schema& schema : AwkwardSchemas()) {
    SCOPED_TRACE(schema.attribute(0).name() + std::string(" d=") +
                 std::to_string(schema.num_attributes()));
    ExpectPublishMatchesReference(schema, {}, seed++);
  }
}

TEST(TileEngineTest, PublishSpanningManyDrawGroupsMatchesReference) {
  // 256 x 256 = 65536 coefficients in lines of 256: each line draws two
  // whole 128-draw groups.
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 160));
  attrs.push_back(data::Attribute::Ordinal("B", 160));
  ExpectPublishMatchesReference(data::Schema(std::move(attrs)), {}, 17);
}

TEST(TileEngineTest, PrefixSumsMatchPerLineReference) {
  for (const auto& dims : std::vector<std::vector<std::size_t>>{
           {1}, {37}, {1, 13, 1}, {5, 1, 9}, {12, 150}, {16, 6, 21, 11}}) {
    const matrix::FrequencyMatrix m = RandomMatrix(dims, 7);
    const std::vector<double> expected = reference::PrefixSums(m);
    for (const simd::IsaLevel level : HostLevels()) {
      const testutil::ScopedIsa forced(level);
      const matrix::PrefixSumTable table(m, nullptr);
      ASSERT_EQ(expected.size(), table.raw_sums().size());
      ASSERT_EQ(0, std::memcmp(expected.data(), table.raw_sums().data(),
                               table.raw_sums().size_bytes()))
          << "isa " << static_cast<int>(level);
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

TEST(TileEngineTest, PublishDeterministicUnderThreads) {
  const data::Schema schema = MixedCubeSchema();
  const matrix::FrequencyMatrix m = RandomMatrix(schema.DomainSizes(), 5);
  mechanism::PriveletPlusMechanism mech;
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
