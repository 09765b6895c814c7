// The vector kernel layer's contract: every kernel at every compiled ISA
// level reproduces the scalar kernel bit-for-bit, on every count
// (including the scalar tails past the last full vector), and the
// dispatcher resolves requests by the documented rules — env var
// vocabulary, clamping to host capability, options override. Also pins
// the strided-panel Haar paths (which feed matrix storage straight to the
// kernels) against the per-line reference, and the batched Laplace front
// half against the draw-at-a-time scalar sampler.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "privelet/rng/distributions.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/simd/dispatch.h"
#include "privelet/simd/kernels.h"
#include "privelet/wavelet/haar.h"

namespace privelet {
namespace {

using simd::IsaLevel;
using simd::KernelTable;

// Counts straddling every vector width the table dispatches to (scalar,
// 4-wide AVX2, 8-wide AVX-512) plus their remainder tails.
constexpr std::size_t kCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 64, 100};

std::vector<IsaLevel> HostLevels() {
  std::vector<IsaLevel> levels;
  for (int l = 0; l <= static_cast<int>(simd::DetectBestIsa()); ++l) {
    levels.push_back(static_cast<IsaLevel>(l));
  }
  return levels;
}

std::vector<double> RandomDoubles(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256pp gen(seed);
  std::vector<double> v(n);
  for (double& x : v) x = gen.NextDouble() * 100.0 - 50.0;
  return v;
}

TEST(SimdKernelTest, TablesReportTheirLevel) {
  for (const IsaLevel level : HostLevels()) {
    EXPECT_EQ(level, simd::Kernels(level).level);
  }
  // Levels beyond what the binary compiled fall back, never crash.
  EXPECT_LE(static_cast<int>(simd::Kernels(IsaLevel::kAvx512).level),
            static_cast<int>(IsaLevel::kAvx512));
}

TEST(SimdKernelTest, HaarStepKernelsMatchScalar) {
  const KernelTable& scalar = simd::Kernels(IsaLevel::kScalar);
  for (const IsaLevel level : HostLevels()) {
    const KernelTable& k = simd::Kernels(level);
    for (const std::size_t n : kCounts) {
      const std::vector<double> left = RandomDoubles(n, 1);
      const std::vector<double> right = RandomDoubles(n, 2);
      std::vector<double> d0(n), a0(n), d1(n), a1(n);
      scalar.haar_forward_step(left.data(), right.data(), d0.data(),
                               a0.data(), n);
      k.haar_forward_step(left.data(), right.data(), d1.data(), a1.data(), n);
      EXPECT_EQ(d0, d1) << "forward detail, count " << n;
      EXPECT_EQ(a0, a1) << "forward avg, count " << n;

      std::vector<double> l0(n), r0(n), l1(n), r1(n);
      scalar.haar_inverse_step(a0.data(), d0.data(), l0.data(), r0.data(), n);
      k.haar_inverse_step(a0.data(), d0.data(), l1.data(), r1.data(), n);
      EXPECT_EQ(l0, l1) << "inverse left, count " << n;
      EXPECT_EQ(r0, r1) << "inverse right, count " << n;
      // Round trip recovers the inputs exactly only up to rounding; the
      // cross-level contract is identical bits, which EXPECT_EQ pinned.
    }
  }
}

TEST(SimdKernelTest, HaarLevelKernelsMatchScalar) {
  const KernelTable& scalar = simd::Kernels(IsaLevel::kScalar);
  for (const IsaLevel level : HostLevels()) {
    const KernelTable& k = simd::Kernels(level);
    for (const std::size_t half : kCounts) {
      const std::vector<double> src = RandomDoubles(2 * half, 3);
      std::vector<double> line0 = src, line1 = src;
      std::vector<double> det0(half), det1(half);
      scalar.haar_forward_level(line0.data(), det0.data(), half);
      k.haar_forward_level(line1.data(), det1.data(), half);
      EXPECT_EQ(line0, line1) << "in-place avg, half " << half;
      EXPECT_EQ(det0, det1) << "in-place detail, half " << half;

      std::vector<double> avg0(half), avg1(half), split_d0(half),
          split_d1(half);
      scalar.haar_forward_level_split(src.data(), avg0.data(),
                                      split_d0.data(), half);
      k.haar_forward_level_split(src.data(), avg1.data(), split_d1.data(),
                                 half);
      EXPECT_EQ(avg0, avg1) << "split avg, half " << half;
      EXPECT_EQ(split_d0, split_d1) << "split detail, half " << half;
      // The out-of-place split performs the same arithmetic as the
      // in-place level.
      EXPECT_EQ(det0, split_d0) << "split vs in-place, half " << half;

      std::vector<double> inv0 = avg0, inv1 = avg0;
      inv0.resize(2 * half);
      inv1.resize(2 * half);
      scalar.haar_inverse_level(inv0.data(), det0.data(), half);
      k.haar_inverse_level(inv1.data(), det0.data(), half);
      EXPECT_EQ(inv0, inv1) << "in-place expand, half " << half;

      std::vector<double> exp0(2 * half), exp1(2 * half);
      scalar.haar_inverse_level_expand(avg0.data(), det0.data(), exp0.data(),
                                       half);
      k.haar_inverse_level_expand(avg0.data(), det0.data(), exp1.data(),
                                  half);
      EXPECT_EQ(exp0, exp1) << "out-of-place expand, half " << half;
      EXPECT_EQ(inv0, exp0) << "expand vs in-place, half " << half;
    }
  }
}

TEST(SimdKernelTest, RowCombineKernelsMatchScalar) {
  const KernelTable& scalar = simd::Kernels(IsaLevel::kScalar);
  for (const IsaLevel level : HostLevels()) {
    const KernelTable& k = simd::Kernels(level);
    for (const std::size_t n : kCounts) {
      const std::vector<double> a = RandomDoubles(n, 4);
      const std::vector<double> b = RandomDoubles(n, 5);
      const double divisor = 3.7;
      const double scale = -1.0 / 3.0;

      std::vector<double> x0 = a, x1 = a;
      scalar.row_add(x0.data(), b.data(), n);
      k.row_add(x1.data(), b.data(), n);
      EXPECT_EQ(x0, x1) << "row_add, count " << n;

      x0 = a, x1 = a;
      scalar.row_sub(x0.data(), b.data(), n);
      k.row_sub(x1.data(), b.data(), n);
      EXPECT_EQ(x0, x1) << "row_sub, count " << n;

      x0 = a, x1 = a;
      scalar.row_div(x0.data(), divisor, n);
      k.row_div(x1.data(), divisor, n);
      EXPECT_EQ(x0, x1) << "row_div, count " << n;

      std::vector<double> y0(n), y1(n);
      scalar.row_add_div(y0.data(), a.data(), b.data(), divisor, n);
      k.row_add_div(y1.data(), a.data(), b.data(), divisor, n);
      EXPECT_EQ(y0, y1) << "row_add_div, count " << n;

      scalar.row_sub_div(y0.data(), a.data(), b.data(), divisor, n);
      k.row_sub_div(y1.data(), a.data(), b.data(), divisor, n);
      EXPECT_EQ(y0, y1) << "row_sub_div, count " << n;

      x0 = a, x1 = a;
      scalar.row_add_scaled(x0.data(), b.data(), scale, n);
      k.row_add_scaled(x1.data(), b.data(), scale, n);
      EXPECT_EQ(x0, x1) << "row_add_scaled, count " << n;
    }
  }
}

TEST(SimdKernelTest, PrefixKernelsMatchScalar) {
  const KernelTable& scalar = simd::Kernels(IsaLevel::kScalar);
  rng::Xoshiro256pp gen(6);
  for (const IsaLevel level : HostLevels()) {
    const KernelTable& k = simd::Kernels(level);
    for (const std::size_t n : kCounts) {
      std::vector<std::int64_t> prev(n), base(n);
      for (std::size_t i = 0; i < n; ++i) {
        prev[i] = static_cast<std::int64_t>(gen.Next() >> 20) - (1 << 22);
        base[i] = static_cast<std::int64_t>(gen.Next() >> 20) - (1 << 22);
      }
      std::vector<std::int64_t> c0 = base, c1 = base;
      scalar.prefix_rows_add_i64(c0.data(), prev.data(), n);
      k.prefix_rows_add_i64(c1.data(), prev.data(), n);
      EXPECT_EQ(c0, c1) << "prefix_rows_add_i64, count " << n;
    }
  }
}

TEST(SimdKernelTest, LaplaceTailMatchesScalarKernelAndSampler) {
  const KernelTable& scalar = simd::Kernels(IsaLevel::kScalar);
  for (const IsaLevel level : HostLevels()) {
    const KernelTable& k = simd::Kernels(level);
    for (const std::size_t n : kCounts) {
      rng::Xoshiro256pp gen(7);
      std::vector<std::uint64_t> raw(n);
      gen.FillRaw(raw.data(), n);
      std::vector<double> t0(n), s0(n), t1(n), s1(n);
      scalar.laplace_tail(raw.data(), t0.data(), s0.data(), n);
      k.laplace_tail(raw.data(), t1.data(), s1.data(), n);
      EXPECT_EQ(t0, t1) << "tail, count " << n;
      EXPECT_EQ(s0, s1) << "neg_sign, count " << n;
    }

    // End to end through the batch front half: magnitude * unit draw must
    // be the exact double the scalar one-at-a-time sampler returns.
    const std::size_t n = 1000;
    const double magnitude = 2.25;
    rng::Xoshiro256pp batch_gen(11), draw_gen(11);
    std::vector<double> unit(n);
    rng::SampleLaplaceUnitBatch(batch_gen, unit.data(), n, k);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(rng::SampleLaplace(draw_gen, magnitude), magnitude * unit[i])
          << "draw " << i << ", level " << static_cast<int>(level);
    }
  }
}

TEST(SimdDispatchTest, NamesRoundTripAndUnknownsAreRejected) {
  for (const IsaLevel level :
       {IsaLevel::kScalar, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    IsaLevel parsed = IsaLevel::kScalar;
    EXPECT_TRUE(simd::ParseIsaLevel(simd::IsaLevelName(level), &parsed));
    EXPECT_EQ(level, parsed);
  }
  IsaLevel untouched = IsaLevel::kAvx2;
  EXPECT_FALSE(simd::ParseIsaLevel("sse9", &untouched));
  EXPECT_FALSE(simd::ParseIsaLevel("", &untouched));
  EXPECT_EQ(IsaLevel::kAvx2, untouched);
}

TEST(SimdDispatchTest, ResolveClampsToHostAndHonorsOverrides) {
  const IsaLevel best = simd::DetectBestIsa();
  // A concrete request never resolves above the host's capability and
  // never rejects: over-asking clamps down to the best the host runs.
  EXPECT_EQ(best, simd::ResolveIsa(simd::IsaChoice::kAvx512));
  EXPECT_LE(static_cast<int>(simd::ResolveIsa(simd::IsaChoice::kAvx2)),
            static_cast<int>(best));
  EXPECT_EQ(IsaLevel::kScalar, simd::ResolveIsa(simd::IsaChoice::kScalar));

  // kAuto re-reads PRIVELET_ISA per call; unknown values are ignored.
  ASSERT_EQ(0, setenv("PRIVELET_ISA", "scalar", 1));
  EXPECT_EQ(IsaLevel::kScalar, simd::ResolveIsa());
  ASSERT_EQ(0, setenv("PRIVELET_ISA", "not-an-isa", 1));
  EXPECT_EQ(best, simd::ResolveIsa());
  ASSERT_EQ(0, unsetenv("PRIVELET_ISA"));
  EXPECT_EQ(best, simd::ResolveIsa());

  // An explicit choice beats the environment.
  ASSERT_EQ(0, setenv("PRIVELET_ISA", simd::IsaLevelName(best).data(), 1));
  EXPECT_EQ(IsaLevel::kScalar, simd::ResolveIsa(simd::IsaChoice::kScalar));
  ASSERT_EQ(0, unsetenv("PRIVELET_ISA"));
}

// The strided-panel entry points read lines laid out directly in matrix
// storage (element k of line b at data[b + k * stride]). Their contract:
// available exactly when no padding is needed, and bit-identical, line
// for line, to the single-line transform at the same level — for every
// level, lane count, and stride >= count.
TEST(SimdStridedPanelTest, StridedLinesMatchPerLineTransform) {
  for (const std::size_t n : {2ul, 4ul, 8ul, 64ul, 128ul}) {
    const wavelet::HaarTransform t(n);
    ASSERT_TRUE(t.SupportsStridedLines());
    for (const std::size_t count : {1ul, 3ul, 8ul, 17ul}) {
      for (const std::size_t stride : {count, count + 5}) {
        const std::vector<double> data = RandomDoubles(stride * n, 31);
        for (const IsaLevel level : HostLevels()) {
          std::vector<double> out(stride * n, 0.0);
          std::vector<double> scratch(t.lines_scratch_size(count));
          t.ForwardLinesStrided(count, data.data(), out.data(), stride,
                                scratch.data(), level);

          std::vector<double> line(n), want(n), got(n),
              line_scratch(t.scratch_size());
          for (std::size_t b = 0; b < count; ++b) {
            for (std::size_t k = 0; k < n; ++k) line[k] = data[b + k * stride];
            t.Forward(line.data(), want.data(), line_scratch.data(), level);
            for (std::size_t k = 0; k < n; ++k) got[k] = out[b + k * stride];
            ASSERT_EQ(want, got)
                << "forward line " << b << ", n " << n << ", count " << count
                << ", stride " << stride << ", level "
                << static_cast<int>(level);
          }

          // Inverse: feed the forward coefficients back through the
          // strided path and compare with the per-line inverse.
          std::vector<double> back(stride * n, 0.0);
          t.InverseLinesStrided(count, out.data(), back.data(), stride,
                                scratch.data(), level);
          for (std::size_t b = 0; b < count; ++b) {
            for (std::size_t k = 0; k < n; ++k) line[k] = out[b + k * stride];
            t.Inverse(line.data(), want.data(), line_scratch.data(), level);
            for (std::size_t k = 0; k < n; ++k) got[k] = back[b + k * stride];
            ASSERT_EQ(want, got)
                << "inverse line " << b << ", n " << n << ", count " << count
                << ", stride " << stride << ", level "
                << static_cast<int>(level);
          }
        }
      }
    }
  }
  // Padded sizes have no strided path: the padding rows would have no
  // matrix storage to read.
  EXPECT_FALSE(wavelet::HaarTransform(37).SupportsStridedLines());
  EXPECT_FALSE(wavelet::HaarTransform(3).SupportsStridedLines());
}

}  // namespace
}  // namespace privelet
