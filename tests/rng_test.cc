// Tests for the hand-rolled generators and distributions, and for the
// per-index definition of the Laplace noise (rng/laplace.h): the ChaCha20
// block function, the project's Log, the edge draws and the moments.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "privelet/common/math_util.h"
#include "privelet/rng/distributions.h"
#include "privelet/rng/laplace.h"
#include "privelet/rng/splitmix64.h"
#include "privelet/rng/xoshiro256pp.h"

namespace privelet::rng {
namespace {

TEST(SplitMix64Test, KnownSequence) {
  // Reference values for seed 1234567 from the public-domain reference
  // implementation (Steele/Lea/Flood).
  SplitMix64 sm(1234567);
  EXPECT_EQ(sm.Next(), 6457827717110365317ULL);
  EXPECT_EQ(sm.Next(), 3203168211198807973ULL);
  EXPECT_EQ(sm.Next(), 9817491932198370423ULL);
}

TEST(SplitMix64Test, DeterministicPerSeed) {
  SplitMix64 a(42), b(42), c(43);
  const std::uint64_t first_a = a.Next();
  EXPECT_EQ(first_a, b.Next());
  EXPECT_NE(first_a, c.Next());
}

TEST(DeriveSeedTest, DistinctIndicesGiveDistinctSeeds) {
  const std::uint64_t root = 99;
  EXPECT_NE(DeriveSeed(root, 0), DeriveSeed(root, 1));
  EXPECT_NE(DeriveSeed(root, 1), DeriveSeed(root, 2));
  EXPECT_EQ(DeriveSeed(root, 5), DeriveSeed(root, 5));
  EXPECT_NE(DeriveSeed(root, 0), DeriveSeed(root + 1, 0));
}

TEST(Xoshiro256ppTest, DeterministicPerSeed) {
  Xoshiro256pp a(7), b(7), c(8);
  const std::uint64_t first_a = a.Next();
  EXPECT_EQ(first_a, b.Next());
  EXPECT_NE(first_a, c.Next());
}

TEST(Xoshiro256ppTest, NextDoubleInUnitInterval) {
  Xoshiro256pp gen(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = gen.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro256ppTest, NextDoubleOpenZeroNeverZero) {
  Xoshiro256pp gen(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = gen.NextDoubleOpenZero();
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(Xoshiro256ppTest, RangeIsInclusiveAndCovered) {
  Xoshiro256pp gen(11);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t v = gen.NextUint64InRange(10, 14);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 14u);
    ++counts[v - 10];
  }
  // All five values should appear with roughly equal frequency (10k each).
  for (int c : counts) EXPECT_GT(c, 9000);
}

TEST(Xoshiro256ppTest, DegenerateRange) {
  Xoshiro256pp gen(11);
  EXPECT_EQ(gen.NextUint64InRange(3, 3), 3u);
}

TEST(Xoshiro256ppTest, UniformMeanIsHalf) {
  Xoshiro256pp gen(21);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += gen.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

// The RFC 8439 §2.3.2 test vector: key 00 01 .. 1f, nonce
// 00:00:00:09:00:00:00:4a:00:00:00:00, block counter 1. In the 64-bit
// counter layout, state words 12..13 (counter 1, nonce word 0x09000000)
// are counter 0x0900000000000001 and words 14..15 are the nonce.
NoiseKey Rfc8439Key() {
  NoiseKey key;
  for (std::uint32_t i = 0; i < 8; ++i) {
    key.key[i] = (4 * i) | ((4 * i + 1) << 8) | ((4 * i + 2) << 16) |
                 ((4 * i + 3) << 24);
  }
  key.nonce = {0x4a000000, 0x00000000};
  return key;
}

TEST(ChaCha20Test, Rfc8439BlockFunctionKnownAnswer) {
  constexpr std::uint32_t kExpected[16] = {
      0xe4e7f110, 0x15593bd1, 0x1fdd0f50, 0xc47120a3,
      0xc7f4d1c7, 0x0368c033, 0x9aaa2204, 0x4e6cd4c3,
      0x466482d2, 0x09aa9f07, 0x05d7c214, 0xa2028bd9,
      0xd19c12b5, 0xb94e16de, 0xe883d0cb, 0x4e3c50a2};
  std::uint32_t block[16];
  ChaCha20Block(Rfc8439Key(), 0x0900000000000001ULL, block);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(kExpected[i], block[i]) << i;
}

TEST(ChaCha20Test, DrawIndexPicksWordPairOfItsBlock) {
  // unit(i) reads words 2(i mod 8), 2(i mod 8)+1 of block i / 8.
  const NoiseKey key = NoiseKey::FromSeed(5);
  std::uint32_t block[16];
  ChaCha20Block(key, 3, block);
  for (std::uint64_t j = 0; j < 8; ++j) {
    const std::uint64_t raw =
        block[2 * j] | (std::uint64_t{block[2 * j + 1]} << 32);
    double expected;
    LaplaceUnitsFromRaw(&raw, 1, &expected);
    EXPECT_EQ(expected, LaplaceUnitAt(key, 24 + j)) << j;
  }
}

TEST(NoiseKeyTest, FromSeedIsDeterministicPerSeed) {
  const NoiseKey a = NoiseKey::FromSeed(42), b = NoiseKey::FromSeed(42);
  EXPECT_EQ(a.key, b.key);
  EXPECT_NE(a.key, NoiseKey::FromSeed(43).key);
  EXPECT_EQ(LaplaceUnitAt(a, 17), LaplaceUnitAt(b, 17));
  EXPECT_NE(LaplaceUnitAt(a, 17), LaplaceUnitAt(NoiseKey::FromSeed(43), 17));
}

TEST(LaplaceUnitTest, EdgeRawsClampTheTailAndGiveSignedZero) {
  // raw >> 11 = 2^53 - 1: u = 1/2, tail 1 - 1 = 0 is clamped to 1e-300,
  // so the draw is the largest positive one, -Log(1e-300) (~690.8).
  // raw >> 11 = 2^52 - 1: u = 0, tail 1, Log(1) = +0 and the draw is
  // -1 * +0 = -0, which adds nothing to any value.
  const std::uint64_t raws[2] = {~0ULL, ((1ULL << 52) - 1) << 11};
  double units[2];
  LaplaceUnitsFromRaw(raws, 2, units);
  EXPECT_EQ(-Log(1e-300), units[0]);
  EXPECT_NEAR(units[0], 300.0 * std::log(10.0), 1e-9);
  EXPECT_EQ(0.0, Log(1.0));
  EXPECT_FALSE(std::signbit(Log(1.0)));
  EXPECT_EQ(0.0, units[1]);
  EXPECT_TRUE(std::signbit(units[1]));
}

TEST(LogTest, WithinOneUlpOfLibmOverTheUnitInterval) {
  // An accuracy bound, not bit equality: a correctly rounded log and
  // this one differ by at most 1 ulp. Sweeps the grid of tails the
  // sampler produces (multiples of 2^-53 near 1), a uniform grid of
  // (0, 1], and log-uniform points down to the 1e-300 clamp.
  Xoshiro256pp gen(2718);
  std::vector<double> xs = {1.0, 0.5, 1e-300, std::sqrt(0.5),
                            std::nextafter(std::sqrt(0.5), 1.0),
                            std::nextafter(1.0, 0.0)};
  for (int i = 1; i <= 4096; ++i) xs.push_back(1.0 - i * 0x1.0p-53);
  for (int i = 1; i <= 200000; ++i) xs.push_back(i / 200000.0);
  for (int i = 0; i < 200000; ++i) {
    const double x = gen.NextDoubleOpenZero() *
                     std::pow(10.0, -300.0 * gen.NextDouble());
    if (x >= 1e-300) xs.push_back(x);
  }
  for (const double x : xs) {
    const double expected = std::log(x);
    const double ulp =
        std::abs(std::nextafter(expected, -HUGE_VAL) - expected);
    ASSERT_LE(std::abs(Log(x) - expected), ulp) << "x = " << x;
  }
}

// Statistical property sweep: for several magnitudes, the sample mean is
// ~0 and the sample variance is ~2b^2 (Sec. II-B: Laplace(b) has variance
// 2b^2 — the DP calibration depends on this).
class LaplaceMagnitudeTest : public ::testing::TestWithParam<double> {};

std::vector<double> LaplaceSamples(std::uint64_t seed, std::size_t n,
                                   double b) {
  const NoiseKey key = NoiseKey::FromSeed(seed);
  std::vector<double> samples(n);
  for (std::size_t i = 0; i < n; ++i) samples[i] = b * LaplaceUnitAt(key, i);
  return samples;
}

TEST_P(LaplaceMagnitudeTest, MeanAndVarianceMatchTheory) {
  const double b = GetParam();
  const std::vector<double> samples = LaplaceSamples(31337, 400000, b);
  const double mean = Mean(samples);
  const double var = SampleVariance(samples);
  const double expected_var = 2.0 * b * b;
  EXPECT_NEAR(mean, 0.0, 0.02 * b + 1e-12);
  EXPECT_NEAR(var / expected_var, 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, LaplaceMagnitudeTest,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 8.0, 40.0));

TEST(LaplaceTest, MedianIsZeroAndSymmetric) {
  const std::vector<double> samples = LaplaceSamples(99, 100000, 1.0);
  const auto positive =
      std::count_if(samples.begin(), samples.end(),
                    [](double x) { return x > 0.0; });
  EXPECT_NEAR(static_cast<double>(positive) / samples.size(), 0.5, 0.01);
}

TEST(LaplaceTest, TailProbabilityMatchesExponential) {
  // P(|X| > t) = exp(-t/b) for Laplace(b).
  const double b = 2.0, t = 3.0;
  const std::vector<double> samples = LaplaceSamples(123, 200000, b);
  const auto exceed =
      std::count_if(samples.begin(), samples.end(),
                    [t](double x) { return std::abs(x) > t; });
  EXPECT_NEAR(static_cast<double>(exceed) / samples.size(), std::exp(-t / b),
              0.01);
}

TEST(BernoulliTest, FrequencyMatchesP) {
  Xoshiro256pp gen(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (SampleBernoulli(gen, 0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(BernoulliTest, ClampsProbability) {
  Xoshiro256pp gen(5);
  EXPECT_FALSE(SampleBernoulli(gen, -1.0));
  EXPECT_TRUE(SampleBernoulli(gen, 2.0));
}

TEST(NormalTest, MomentsMatchStandardNormal) {
  Xoshiro256pp gen(77);
  const int n = 400000;
  std::vector<double> samples(n);
  for (int i = 0; i < n; ++i) samples[i] = SampleStandardNormal(gen);
  EXPECT_NEAR(Mean(samples), 0.0, 0.01);
  EXPECT_NEAR(SampleVariance(samples), 1.0, 0.02);
}

TEST(ZipfTest, RankFrequenciesDecrease) {
  Xoshiro256pp gen(13);
  ZipfSampler zipf(64, 1.1);
  std::vector<int> counts(64, 0);
  for (int i = 0; i < 200000; ++i) ++counts[zipf.Sample(gen)];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[4]);
  EXPECT_GT(counts[4], counts[32]);
}

TEST(ZipfTest, RatioOfTopRanksMatchesExponent) {
  Xoshiro256pp gen(13);
  const double s = 1.0;
  ZipfSampler zipf(1024, s);
  std::vector<int> counts(1024, 0);
  const int n = 1000000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(gen)];
  // P(0)/P(1) = 2^s.
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[1], 2.0, 0.15);
}

TEST(ZipfTest, SamplesWithinDomain) {
  Xoshiro256pp gen(17);
  ZipfSampler zipf(10, 1.5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Sample(gen), 10u);
}

TEST(DiscretizedLogNormalTest, SamplesWithinDomain) {
  Xoshiro256pp gen(19);
  DiscretizedLogNormal income(1001, std::log(50.0), 0.8);
  for (int i = 0; i < 20000; ++i) EXPECT_LT(income.Sample(gen), 1001u);
}

TEST(DiscretizedLogNormalTest, MedianNearExpMu) {
  Xoshiro256pp gen(19);
  const double mu = std::log(100.0);
  DiscretizedLogNormal dist(100000, mu, 0.5);
  std::vector<double> samples;
  const int n = 100001;
  samples.reserve(n);
  for (int i = 0; i < n; ++i) {
    samples.push_back(static_cast<double>(dist.Sample(gen)));
  }
  std::nth_element(samples.begin(), samples.begin() + n / 2, samples.end());
  EXPECT_NEAR(samples[n / 2], 100.0, 5.0);
}

TEST(DiscreteSamplerTest, MatchesWeights) {
  Xoshiro256pp gen(23);
  DiscreteSampler sampler({1.0, 3.0, 6.0});
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(gen)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.3, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.6, 0.01);
}

TEST(DiscreteSamplerTest, ZeroWeightNeverSampled) {
  Xoshiro256pp gen(29);
  DiscreteSampler sampler({0.0, 1.0, 0.0});
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sampler.Sample(gen), 1u);
}

}  // namespace
}  // namespace privelet::rng
