// Tests for the dense frequency matrix and the d-dimensional prefix-sum
// tables, including randomized cross-checks against brute force.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <utility>
#include <vector>

#include "privelet/data/attribute.h"
#include "privelet/data/table.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/matrix/prefix_sum.h"
#include "privelet/rng/xoshiro256pp.h"

namespace privelet::matrix {
namespace {

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
  auto scratch = FrequencyMatrix::CreateScratch({16, 8});
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  EXPECT_TRUE(scratch->is_scratch());
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
  auto scratch = FrequencyMatrix::CreateScratch({4, 4});
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  for (std::size_t i = 0; i < scratch->size(); ++i) {
    (*scratch)[i] = static_cast<double>(i);
  }
  const FrequencyMatrix copy(*scratch);
  EXPECT_FALSE(copy.is_scratch());
  EXPECT_TRUE(ValuesEqual(copy.values(), scratch->values()));
  // Moves transfer the scratch backing as-is.
  const FrequencyMatrix moved(std::move(*scratch));
  EXPECT_TRUE(moved.is_scratch());
  EXPECT_TRUE(ValuesEqual(copy.values(), moved.values()));
}

TEST(FrequencyMatrixTest, ScratchInMissingDirectoryFails) {
  auto scratch = FrequencyMatrix::CreateScratch(
      {4, 4}, testing::TempDir() + "/no_such_scratch_dir/deeper");
  ASSERT_FALSE(scratch.ok());
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
  PrefixSumTable<std::int64_t> table(m);
  const std::array<std::size_t, 1> lo0 = {0}, hi4 = {4}, lo2 = {2}, hi2 = {2};
  EXPECT_EQ(table.RangeSum(lo0, hi4), 15);
  EXPECT_EQ(table.RangeSum(lo2, hi2), 3);
  EXPECT_EQ(table.RangeSum(lo2, hi4), 12);
}

TEST(PrefixSumTest, TwoDimensionalCorners) {
  FrequencyMatrix m({2, 2});
  m.At(std::array<std::size_t, 2>{0, 0}) = 1.0;
  m.At(std::array<std::size_t, 2>{0, 1}) = 2.0;
  m.At(std::array<std::size_t, 2>{1, 0}) = 3.0;
  m.At(std::array<std::size_t, 2>{1, 1}) = 4.0;
  PrefixSumTable<std::int64_t> table(m);
  const std::array<std::size_t, 2> zz = {0, 0}, oo = {1, 1}, oz = {1, 0};
  EXPECT_EQ(table.RangeSum(zz, oo), 10);
  EXPECT_EQ(table.RangeSum(oz, oo), 7);   // bottom row
  EXPECT_EQ(table.RangeSum(zz, oz), 4);   // left column
  EXPECT_EQ(table.RangeSum(oz, oz), 3);   // single cell
}

// Property sweep: random matrices of random dimensionality; every random
// box's prefix-sum answer equals brute force, for both accumulators.
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
  PrefixSumTable<std::int64_t> exact(m);
  PrefixSumTable<double> real(m);

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
    EXPECT_EQ(exact.RangeSum(lo, hi), expected);
    EXPECT_NEAR(static_cast<double>(real.RangeSum(lo, hi)),
                static_cast<double>(expected), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixSumPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 16));

}  // namespace
}  // namespace privelet::matrix
