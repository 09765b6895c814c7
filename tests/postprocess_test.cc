// Tests for DP-preserving post-processing and matrix serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "privelet/matrix/frequency_matrix.h"
#include "privelet/matrix/matrix_io.h"
#include "privelet/mechanism/postprocess.h"
#include "privelet/rng/laplace.h"

namespace privelet {
namespace {

TEST(PostprocessTest, ClampNonNegative) {
  matrix::FrequencyMatrix m({4});
  m[0] = -3.5;
  m[1] = 0.0;
  m[2] = 2.5;
  m[3] = -0.1;
  mechanism::ClampNonNegative(&m);
  EXPECT_DOUBLE_EQ(m[0], 0.0);
  EXPECT_DOUBLE_EQ(m[1], 0.0);
  EXPECT_DOUBLE_EQ(m[2], 2.5);
  EXPECT_DOUBLE_EQ(m[3], 0.0);
}

TEST(PostprocessTest, RoundToIntegers) {
  matrix::FrequencyMatrix m({5});
  m[0] = 1.4;
  m[1] = 1.5;
  m[2] = -1.5;
  m[3] = -0.4;
  m[4] = 7.0;
  mechanism::RoundToIntegers(&m);
  EXPECT_DOUBLE_EQ(m[0], 1.0);
  EXPECT_DOUBLE_EQ(m[1], 2.0);
  EXPECT_DOUBLE_EQ(m[2], -2.0);
  EXPECT_DOUBLE_EQ(m[3], -0.0);
  EXPECT_DOUBLE_EQ(m[4], 7.0);
}

TEST(PostprocessTest, ScaleToTotal) {
  matrix::FrequencyMatrix m({3});
  m[0] = 1.0;
  m[1] = 2.0;
  m[2] = 1.0;
  mechanism::ScaleToTotal(&m, 100.0);
  EXPECT_DOUBLE_EQ(m.Total(), 100.0);
  EXPECT_DOUBLE_EQ(m[1], 50.0);
}

TEST(PostprocessTest, ScaleToTotalNoOpOnNonPositive) {
  matrix::FrequencyMatrix m({2});
  m[0] = -1.0;
  m[1] = 1.0;
  mechanism::ScaleToTotal(&m, 10.0);  // total == 0: untouched
  EXPECT_DOUBLE_EQ(m[0], -1.0);
  EXPECT_DOUBLE_EQ(m[1], 1.0);
}

TEST(PostprocessTest, ClampingBiasesSparseRangeSumsUpward) {
  // Documents the warning on ClampNonNegative: on a zero matrix with
  // symmetric noise, clamping turns an unbiased full-range sum into one
  // that grows linearly with the number of covered cells.
  matrix::FrequencyMatrix m({1024});
  const rng::NoiseKey key = rng::NoiseKey::FromSeed(3);
  double raw_sum = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = 2.0 * rng::LaplaceUnitAt(key, i);
    raw_sum += m[i];
  }
  mechanism::ClampNonNegative(&m);
  // E[max(0, Laplace(2))] = 1, so the clamped total concentrates near
  // 1024 while the unbiased total is near 0.
  EXPECT_LT(std::abs(raw_sum), 300.0);
  EXPECT_GT(m.Total(), 700.0);
}

class MatrixIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("privelet_matrix_" + std::to_string(::getpid()) + ".bin"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

TEST_F(MatrixIoTest, RoundTrip) {
  matrix::FrequencyMatrix m({3, 4, 2});
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(i) * 0.5 - 3.0;
  }
  ASSERT_TRUE(matrix::WriteMatrix(path_, m).ok());
  auto loaded = matrix::ReadMatrix(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->dims(), m.dims());
  EXPECT_TRUE(matrix::ValuesEqual(loaded->values(), m.values()));
}

TEST_F(MatrixIoTest, RejectsMissingFile) {
  EXPECT_EQ(matrix::ReadMatrix("/no/such/file.bin").status().code(),
            StatusCode::kIOError);
}

TEST_F(MatrixIoTest, RejectsGarbage) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a matrix", f);
    std::fclose(f);
  }
  EXPECT_EQ(matrix::ReadMatrix(path_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MatrixIoTest, RejectsTruncatedPayload) {
  matrix::FrequencyMatrix m({8, 8});
  ASSERT_TRUE(matrix::WriteMatrix(path_, m).ok());
  std::filesystem::resize_file(path_,
                               std::filesystem::file_size(path_) - 16);
  EXPECT_FALSE(matrix::ReadMatrix(path_).ok());
}

}  // namespace
}  // namespace privelet
