// Tests for the dense frequency matrix and the d-dimensional prefix-sum
// table, including randomized cross-checks against brute force and the
// exactness of the binary64 table over integer counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "privelet/common/thread_pool.h"
#include "privelet/data/attribute.h"
#include "privelet/data/table.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/matrix/prefix_sum.h"
#include "privelet/rng/xoshiro256pp.h"

namespace privelet::matrix {
namespace {

EngineOptions Budget(std::size_t bytes, std::string scratch_dir = "") {
  EngineOptions options;
  options.max_memory_bytes = bytes;
  options.scratch_dir = std::move(scratch_dir);
  return options;
}

TEST(FrequencyMatrixTest, ConstructionZeroFills) {
  FrequencyMatrix m({3, 4});
  EXPECT_EQ(m.num_dims(), 2u);
  EXPECT_EQ(m.size(), 12u);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m[i], 0.0);
}

TEST(FrequencyMatrixDeathTest, DimensionProductOverflowAborts) {
  // Regression: the total-cell computation must use checked
  // multiplication instead of wrapping and allocating a tiny buffer.
  const std::size_t big = std::numeric_limits<std::size_t>::max() / 2 + 1;
  EXPECT_DEATH(FrequencyMatrix({big, 2}), "dimension product overflow");
}

TEST(FrequencyMatrixTest, ScratchBackedMatrixRoundTrips) {
  auto scratch = FrequencyMatrix::CreateScratch({16, 8}, Budget(4096));
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  EXPECT_TRUE(scratch->is_scratch());
  EXPECT_EQ(scratch->budget().max_memory_bytes, 4096u);
  ASSERT_EQ(scratch->size(), 128u);
  for (std::size_t i = 0; i < scratch->size(); ++i) {
    ASSERT_EQ((*scratch)[i], 0.0) << "scratch not zero-filled at " << i;
    (*scratch)[i] = 0.5 * static_cast<double>(i);
  }
  // Dropping resident pages must not lose data (file-backed scratch).
  scratch->ReleaseResidency();
  for (std::size_t i = 0; i < scratch->size(); ++i) {
    ASSERT_EQ((*scratch)[i], 0.5 * static_cast<double>(i));
  }
}

TEST(FrequencyMatrixTest, ScratchCopiesLandOwned) {
  auto scratch = FrequencyMatrix::CreateScratch({4, 4}, Budget(4096));
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  for (std::size_t i = 0; i < scratch->size(); ++i) {
    (*scratch)[i] = static_cast<double>(i);
  }
  const FrequencyMatrix copy(*scratch);
  EXPECT_FALSE(copy.is_scratch());
  EXPECT_FALSE(copy.budget().out_of_core());
  EXPECT_TRUE(ValuesEqual(copy.values(), scratch->values()));
  // Moves transfer the scratch backing and its budget as-is.
  const FrequencyMatrix moved(std::move(*scratch));
  EXPECT_TRUE(moved.is_scratch());
  EXPECT_EQ(moved.budget().max_memory_bytes, 4096u);
  EXPECT_FALSE(scratch->budget().out_of_core());
  EXPECT_TRUE(ValuesEqual(copy.values(), moved.values()));
}

TEST(FrequencyMatrixTest, ScratchInMissingDirectoryFails) {
  auto scratch = FrequencyMatrix::CreateScratch(
      {4, 4}, Budget(4096, testing::TempDir() + "/no_such_scratch_dir/deeper"));
  ASSERT_FALSE(scratch.ok());
}

TEST(FrequencyMatrixTest, ScratchWithoutBudgetIsRejected) {
  // A scratch matrix always carries the budget its readers pace by.
  auto scratch = FrequencyMatrix::CreateScratch({4, 4}, EngineOptions());
  ASSERT_FALSE(scratch.ok());
  EXPECT_EQ(scratch.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrequencyMatrixTest, FromTableWithBudgetIsScratchBackedAndEqual) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 64));
  attrs.push_back(data::Attribute::Ordinal("B", 40));
  data::Table table((data::Schema(std::move(attrs))));
  rng::Xoshiro256pp gen(23);
  for (int row = 0; row < 3000; ++row) {
    const auto a = static_cast<std::uint32_t>(gen.NextUint64InRange(0, 63));
    const auto b = static_cast<std::uint32_t>(gen.NextUint64InRange(0, 39));
    ASSERT_TRUE(table.AppendRow({a, b}).ok());
  }
  const FrequencyMatrix in_core = FrequencyMatrix::FromTable(table);
  // An 8 KiB budget releases residency after every row.
  const EngineOptions options = Budget(8192, testing::TempDir());
  auto scratch = FrequencyMatrix::FromTable(table, options);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  EXPECT_TRUE(scratch->is_scratch());
  EXPECT_EQ(scratch->budget().max_memory_bytes, options.max_memory_bytes);
  EXPECT_EQ(scratch->budget().scratch_dir, options.scratch_dir);
  EXPECT_TRUE(ValuesEqual(scratch->values(), in_core.values()));
  // Without a budget it is the in-core FromTable.
  auto owned = FrequencyMatrix::FromTable(table, EngineOptions());
  ASSERT_TRUE(owned.ok());
  EXPECT_FALSE(owned->is_scratch());
  EXPECT_TRUE(ValuesEqual(owned->values(), in_core.values()));
}

TEST(FrequencyMatrixTest, UninitializedRecyclesOnlyACoveringOwnedBuffer) {
  // Covering capacity: the same storage, re-dimensioned; a smaller
  // matrix keeps the larger capacity.
  FrequencyMatrix big = FrequencyMatrix::Uninitialized({8, 8});
  const double* storage = big.values().data();
  FrequencyMatrix smaller = FrequencyMatrix::Uninitialized({4, 6},
                                                           std::move(big));
  EXPECT_EQ(smaller.values().data(), storage);
  EXPECT_EQ(smaller.dims(), (std::vector<std::size_t>{4, 6}));
  EXPECT_EQ(smaller.size(), 24u);
  EXPECT_EQ(smaller.capacity(), 64u);
  EXPECT_EQ(big.size(), 0u);
  // Too small: released, and the result gets a buffer of its own size.
  FrequencyMatrix grown = FrequencyMatrix::Uninitialized({10, 10},
                                                         std::move(smaller));
  EXPECT_EQ(grown.size(), 100u);
  EXPECT_EQ(grown.capacity(), 100u);
  EXPECT_EQ(smaller.size(), 0u);
  // A scratch matrix is never recycled.
  auto scratch = FrequencyMatrix::CreateScratch({16, 8}, Budget(4096));
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(scratch->capacity(), scratch->size());
  const double* mapped = scratch->values().data();
  FrequencyMatrix owned =
      FrequencyMatrix::Uninitialized({4, 4}, std::move(*scratch));
  EXPECT_NE(owned.values().data(), mapped);
  EXPECT_FALSE(owned.is_scratch());
  EXPECT_EQ(owned.capacity(), 16u);
}

TEST(FrequencyMatrixTest, FlatIndexIsRowMajor) {
  FrequencyMatrix m({2, 3, 4});
  EXPECT_EQ(m.Stride(0), 12u);
  EXPECT_EQ(m.Stride(1), 4u);
  EXPECT_EQ(m.Stride(2), 1u);
  const std::array<std::size_t, 3> coords = {1, 2, 3};
  EXPECT_EQ(m.FlatIndex(coords), 1u * 12 + 2u * 4 + 3u);
}

TEST(FrequencyMatrixTest, CoordsInvertsFlatIndex) {
  FrequencyMatrix m({3, 5, 2});
  for (std::size_t flat = 0; flat < m.size(); ++flat) {
    EXPECT_EQ(m.FlatIndex(m.Coords(flat)), flat);
  }
}

TEST(FrequencyMatrixTest, GatherScatterRoundTrip) {
  FrequencyMatrix m({3, 4, 5});
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = static_cast<double>(i);
  for (std::size_t axis = 0; axis < 3; ++axis) {
    FrequencyMatrix copy({3, 4, 5});
    std::vector<double> line(m.dim(axis));
    for (std::size_t l = 0; l < m.NumLines(axis); ++l) {
      m.GatherLine(axis, l, line.data());
      copy.ScatterLine(axis, l, line.data());
    }
    EXPECT_TRUE(matrix::ValuesEqual(copy.values(), m.values()))
        << "axis " << axis;
  }
}

TEST(FrequencyMatrixTest, LineNumberingStableAcrossAxisResize) {
  // Lines along axis 0 must correspond between a {2,3} and a {5,3} matrix
  // (the HN transform relies on this when an axis grows).
  FrequencyMatrix small({2, 3});
  FrequencyMatrix large({5, 3});
  for (std::size_t line = 0; line < small.NumLines(0); ++line) {
    // Base offsets share the same "other axis" coordinate.
    const auto small_coords = small.Coords(small.LineBase(0, line));
    const auto large_coords = large.Coords(large.LineBase(0, line));
    EXPECT_EQ(small_coords[1], large_coords[1]);
    EXPECT_EQ(small_coords[0], 0u);
    EXPECT_EQ(large_coords[0], 0u);
  }
}

TEST(FrequencyMatrixTest, FromTableCountsTuples) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 2));
  attrs.push_back(data::Attribute::Ordinal("B", 3));
  data::Table table((data::Schema(std::move(attrs))));
  ASSERT_TRUE(table.AppendRow({0, 1}).ok());
  ASSERT_TRUE(table.AppendRow({0, 1}).ok());
  ASSERT_TRUE(table.AppendRow({1, 2}).ok());
  const FrequencyMatrix m = FrequencyMatrix::FromTable(table);
  EXPECT_EQ(m.dims(), (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(m.At(std::array<std::size_t, 2>{0, 1}), 2.0);
  EXPECT_EQ(m.At(std::array<std::size_t, 2>{1, 2}), 1.0);
  EXPECT_EQ(m.At(std::array<std::size_t, 2>{0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(m.Total(), 3.0);
}

TEST(PrefixSumTest, OneDimensional) {
  FrequencyMatrix m({5});
  for (std::size_t i = 0; i < 5; ++i) m[i] = static_cast<double>(i + 1);
  PrefixSumTable table(m);
  const std::array<std::size_t, 1> lo0 = {0}, hi4 = {4}, lo2 = {2}, hi2 = {2};
  EXPECT_EQ(table.RangeSum(lo0, hi4), 15.0);
  EXPECT_EQ(table.RangeSum(lo2, hi2), 3.0);
  EXPECT_EQ(table.RangeSum(lo2, hi4), 12.0);
}

TEST(PrefixSumTest, TwoDimensionalCorners) {
  FrequencyMatrix m({2, 2});
  m.At(std::array<std::size_t, 2>{0, 0}) = 1.0;
  m.At(std::array<std::size_t, 2>{0, 1}) = 2.0;
  m.At(std::array<std::size_t, 2>{1, 0}) = 3.0;
  m.At(std::array<std::size_t, 2>{1, 1}) = 4.0;
  PrefixSumTable table(m);
  const std::array<std::size_t, 2> zz = {0, 0}, oo = {1, 1}, oz = {1, 0};
  EXPECT_EQ(table.RangeSum(zz, oo), 10.0);
  EXPECT_EQ(table.RangeSum(oz, oo), 7.0);   // bottom row
  EXPECT_EQ(table.RangeSum(zz, oz), 4.0);   // left column
  EXPECT_EQ(table.RangeSum(oz, oz), 3.0);   // single cell
}

// Property sweep: random matrices of random dimensionality; every random
// box's prefix-sum answer equals the integer brute-force sum exactly.
class PrefixSumPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PrefixSumPropertyTest, MatchesBruteForce) {
  rng::Xoshiro256pp gen(GetParam());
  const std::size_t d = gen.NextUint64InRange(1, 4);
  std::vector<std::size_t> dims(d);
  for (auto& dim : dims) dim = gen.NextUint64InRange(1, 6);
  FrequencyMatrix m(dims);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 9));
  }
  PrefixSumTable table(m);

  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::size_t> lo(d), hi(d);
    for (std::size_t a = 0; a < d; ++a) {
      lo[a] = gen.NextUint64InRange(0, dims[a] - 1);
      hi[a] = gen.NextUint64InRange(lo[a], dims[a] - 1);
    }
    // Brute force.
    std::int64_t expected = 0;
    std::vector<std::size_t> coords = lo;
    while (true) {
      expected += static_cast<std::int64_t>(m.At(coords));
      std::size_t axis = d;
      bool done = false;
      while (axis-- > 0) {
        if (coords[axis] < hi[axis]) {
          ++coords[axis];
          break;
        }
        coords[axis] = lo[axis];
        if (axis == 0) done = true;
      }
      if (done) break;
    }
    EXPECT_EQ(table.RangeSum(lo, hi), static_cast<double>(expected));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixSumPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 16));

// The binary64 table is exact over integer counts whose total is below
// 2^53: here each entry is 2^40 + k, so the total sits just above 2^52
// and every partial sum keeps all its low bits. Random boxes must equal
// an int64 brute-force sum exactly.
TEST(PrefixSumTest, IntegerCountsBelowTwoTo53AreExact) {
  constexpr std::int64_t kBase = std::int64_t{1} << 40;
  rng::Xoshiro256pp gen(53);
  FrequencyMatrix m({64, 64});
  std::vector<std::int64_t> counts(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    counts[i] =
        kBase + static_cast<std::int64_t>(gen.NextUint64InRange(0, 999));
    m[i] = static_cast<double>(counts[i]);
  }
  std::int64_t total = 0;
  for (const std::int64_t c : counts) total += c;
  ASSERT_LT(total, std::int64_t{1} << 53);
  const PrefixSumTable table(m);

  for (int trial = 0; trial < 200; ++trial) {
    std::array<std::size_t, 2> lo, hi;
    for (std::size_t a = 0; a < 2; ++a) {
      lo[a] = gen.NextUint64InRange(0, 63);
      hi[a] = gen.NextUint64InRange(lo[a], 63);
    }
    std::int64_t expected = 0;
    for (std::size_t r = lo[0]; r <= hi[0]; ++r) {
      for (std::size_t c = lo[1]; c <= hi[1]; ++c) {
        expected += counts[r * 64 + c];
      }
    }
    EXPECT_EQ(table.RangeSum(lo, hi), static_cast<double>(expected))
        << "trial " << trial;
  }
}

// A table built from an rvalue matrix adopts its storage and sums it in
// place; the entries must be those of the const-source build.
FrequencyMatrix RandomRealMatrix(std::vector<std::size_t> dims,
                                 std::uint64_t seed) {
  FrequencyMatrix m(std::move(dims));
  rng::Xoshiro256pp gen(seed);
  // Fractional, signed values so every rounding of the running sums shows.
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = gen.NextDouble() * 9 - 4;
  return m;
}

TEST(PrefixSumAdoptTest, AdoptedBuildIsBitIdenticalInTheReleaseStorage) {
  const std::vector<std::vector<std::size_t>> shapes = {
      {1000}, {64, 48}, {9, 10, 11}, {1, 7, 1, 5}, {257, 3}, {3, 130}};
  common::ThreadPool pool(3);
  for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                &pool}) {
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      FrequencyMatrix m = RandomRealMatrix(shapes[s], 100 + s);
      const PrefixSumTable reference(m, p);
      const double* storage = m.values().data();
      const PrefixSumTable adopted(std::move(m), p);
      EXPECT_EQ(adopted.raw_sums().data(), storage) << "shape " << s;
      EXPECT_FALSE(adopted.is_view());
      EXPECT_FALSE(adopted.is_scratch());
      EXPECT_EQ(adopted.dims(), shapes[s]);
      EXPECT_TRUE(ValuesEqual(adopted.raw_sums(), reference.raw_sums()))
          << "shape " << s << (p != nullptr ? " pooled" : " serial");
    }
  }
}

TEST(PrefixSumAdoptTest, CopyOfAnAdoptedTableIsDeepAndOutlivesIt) {
  FrequencyMatrix m = RandomRealMatrix({33, 17}, 7);
  const PrefixSumTable reference(m);
  std::optional<PrefixSumTable> adopted;
  adopted.emplace(std::move(m));
  const PrefixSumTable copy(*adopted);
  PrefixSumTable assigned(reference);
  assigned = *adopted;
  EXPECT_NE(copy.raw_sums().data(), adopted->raw_sums().data());
  EXPECT_NE(assigned.raw_sums().data(), adopted->raw_sums().data());
  EXPECT_FALSE(copy.is_view());
  EXPECT_FALSE(assigned.is_view());
  adopted.reset();  // frees the adopted storage
  EXPECT_TRUE(ValuesEqual(copy.raw_sums(), reference.raw_sums()));
  EXPECT_TRUE(ValuesEqual(assigned.raw_sums(), reference.raw_sums()));
}

TEST(PrefixSumAdoptTest, MovesKeepTheAdoptedStorage) {
  FrequencyMatrix m = RandomRealMatrix({16, 20}, 9);
  const PrefixSumTable reference(m);
  const double* storage = m.values().data();
  PrefixSumTable adopted(std::move(m));
  PrefixSumTable moved(std::move(adopted));
  EXPECT_EQ(moved.raw_sums().data(), storage);
  PrefixSumTable assigned(reference);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.raw_sums().data(), storage);
  EXPECT_FALSE(assigned.is_view());
  EXPECT_TRUE(ValuesEqual(assigned.raw_sums(), reference.raw_sums()));
  // A copy of the moved-to table is still deep.
  const PrefixSumTable copy(assigned);
  EXPECT_NE(copy.raw_sums().data(), storage);
  EXPECT_TRUE(ValuesEqual(copy.raw_sums(), reference.raw_sums()));
}

TEST(PrefixSumAdoptTest, ScratchBackedReleaseStaysInItsMapping) {
  // A 16 KiB budget releases many times per pass.
  auto scratch = FrequencyMatrix::CreateScratch({96, 80}, Budget(16 * 1024));
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  const FrequencyMatrix values = RandomRealMatrix({96, 80}, 11);
  std::copy(values.values().begin(), values.values().end(),
            scratch->values().begin());
  const PrefixSumTable reference(values);
  const double* storage = scratch->values().data();
  common::ThreadPool pool(2);
  const PrefixSumTable adopted(std::move(*scratch), &pool);
  EXPECT_TRUE(adopted.is_scratch());
  EXPECT_EQ(adopted.budget().max_memory_bytes, 16u * 1024);
  EXPECT_FALSE(adopted.is_view());
  EXPECT_EQ(adopted.raw_sums().data(), storage);
  EXPECT_TRUE(ValuesEqual(adopted.raw_sums(), reference.raw_sums()));
  adopted.ReleaseResidency();  // evicts pages; the entries survive
  EXPECT_TRUE(ValuesEqual(adopted.raw_sums(), reference.raw_sums()));
  const PrefixSumTable copy(adopted);  // lands on the heap
  EXPECT_FALSE(copy.is_scratch());
  EXPECT_FALSE(copy.budget().out_of_core());
  EXPECT_TRUE(ValuesEqual(copy.raw_sums(), reference.raw_sums()));
}

}  // namespace
}  // namespace privelet::matrix
