// The vector kernel layer's contract: every kernel at every compiled ISA
// level reproduces the scalar kernel bit-for-bit, on every count
// (including the scalar tails past the last full vector), also through
// every pointer aliasing its contract allows, and the dispatcher resolves
// PRIVELET_ISA by the documented rules — vocabulary, clamping to host
// capability. Also pins
// every transform's batched line kernel (which runs on matrix storage at
// a row pitch) against the single-line transform, and the batched
// counter-based Laplace draws against their per-index definition
// (rng/laplace.h).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "privelet/rng/laplace.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/simd/dispatch.h"
#include "privelet/simd/kernels.h"
#include "privelet/data/hierarchy.h"
#include "privelet/wavelet/haar.h"
#include "privelet/wavelet/identity.h"
#include "privelet/wavelet/nominal.h"
#include "scoped_isa.h"

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

// A table can report its level and still carry scalar transform kernels:
// every bit-identity test passes then, and only a timing gate would
// notice. Each Haar and row entry of a vector level must be that level's
// own function, not the scalar table's.
TEST(SimdKernelTest, VectorTablesCarryTheirOwnTransformKernels) {
  const KernelTable& scalar = simd::Kernels(IsaLevel::kScalar);
  for (const IsaLevel level : HostLevels()) {
    if (level == IsaLevel::kScalar) continue;
    const KernelTable& k = simd::Kernels(level);
    const std::string name(simd::IsaLevelName(level));
    const auto expect_own = [&](auto entry, const char* entry_name) {
      EXPECT_NE(scalar.*entry, k.*entry) << entry_name << " is scalar at "
                                         << name;
    };
    expect_own(&KernelTable::haar_forward_step, "haar_forward_step");
    expect_own(&KernelTable::haar_inverse_step, "haar_inverse_step");
    expect_own(&KernelTable::haar_forward_level, "haar_forward_level");
    expect_own(&KernelTable::haar_inverse_level, "haar_inverse_level");
    expect_own(&KernelTable::haar_forward_level_split,
               "haar_forward_level_split");
    expect_own(&KernelTable::haar_inverse_level_expand,
               "haar_inverse_level_expand");
    expect_own(&KernelTable::row_add, "row_add");
    expect_own(&KernelTable::row_sub, "row_sub");
    expect_own(&KernelTable::row_div, "row_div");
    expect_own(&KernelTable::row_add_div, "row_add_div");
    expect_own(&KernelTable::row_sub_div, "row_sub_div");
    expect_own(&KernelTable::row_add_scaled, "row_add_scaled");
  }
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

// Every aliasing a kernels.h contract allows, called directly: each level
// must give the scalar table's non-aliased results bit for bit. A
// __restrict on one of these pointers would break exactly this.
TEST(SimdKernelTest, AliasedCallsMatchScalar) {
  const KernelTable& scalar = simd::Kernels(IsaLevel::kScalar);
  for (const IsaLevel level : HostLevels()) {
    const KernelTable& k = simd::Kernels(level);
    const std::string name(simd::IsaLevelName(level));
    for (const std::size_t n : kCounts) {
      const std::vector<double> a = RandomDoubles(n, 7);
      const std::vector<double> b = RandomDoubles(n, 8);

      // haar_forward_step with avg == left.
      std::vector<double> det0(n), avg0(n), det1(n);
      scalar.haar_forward_step(a.data(), b.data(), det0.data(), avg0.data(),
                               n);
      std::vector<double> avg_in_left = a;
      k.haar_forward_step(avg_in_left.data(), b.data(), det1.data(),
                          avg_in_left.data(), n);
      EXPECT_EQ(det0, det1) << "forward step detail, avg == left, " << name
                            << ", count " << n;
      EXPECT_EQ(avg0, avg_in_left) << "forward step avg == left, " << name
                                   << ", count " << n;

      // haar_inverse_step with left == avg.
      std::vector<double> l0(n), r0(n), r1(n);
      scalar.haar_inverse_step(a.data(), b.data(), l0.data(), r0.data(), n);
      std::vector<double> left_in_avg = a;
      k.haar_inverse_step(left_in_avg.data(), b.data(), left_in_avg.data(),
                          r1.data(), n);
      EXPECT_EQ(l0, left_in_avg) << "inverse step left == avg, " << name
                                 << ", count " << n;
      EXPECT_EQ(r0, r1) << "inverse step right, left == avg, " << name
                        << ", count " << n;

      // haar_inverse_step with left == right: both outputs are discarded,
      // so each lane need only hold one of its two results, and the
      // inputs must be untouched.
      std::vector<double> both(n), avg_copy = a, detail_copy = b;
      k.haar_inverse_step(avg_copy.data(), detail_copy.data(), both.data(),
                          both.data(), n);
      EXPECT_EQ(a, avg_copy) << name << ", count " << n;
      EXPECT_EQ(b, detail_copy) << name << ", count " << n;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(both[i] == l0[i] || both[i] == r0[i])
            << "inverse step left == right, " << name << ", count " << n
            << ", lane " << i;
      }

      // row_add_div with out == a.
      std::vector<double> sum0(n);
      scalar.row_add_div(sum0.data(), a.data(), b.data(), 3.7, n);
      std::vector<double> out_in_a = a;
      k.row_add_div(out_in_a.data(), out_in_a.data(), b.data(), 3.7, n);
      EXPECT_EQ(sum0, out_in_a) << "row_add_div out == a, " << name
                                << ", count " << n;
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

TEST(SimdKernelTest, LaplaceUnitsMatchPerIndexDefinitionOnUnalignedRuns) {
  // Starts off the 8-draw block and 128-draw group grids, and runs shorter
  // than, equal to and just past one block or group: every level must
  // give the bits of rng::LaplaceUnitAt at every index.
  const rng::NoiseKey key = rng::NoiseKey::FromSeed(2024);
  constexpr std::uint64_t kFirsts[] = {0, 1, 5, 8, 131, 1000003,
                                       (std::uint64_t{1} << 35) + 7};
  constexpr std::size_t kRuns[] = {1, 7, 8, 32, 127, 129, 2048};
  for (const IsaLevel level : HostLevels()) {
    const KernelTable& k = simd::Kernels(level);
    for (const std::uint64_t first : kFirsts) {
      for (const std::size_t n : kRuns) {
        std::vector<double> out(n);
        k.laplace_units(key, first, n, out.data());
        for (std::size_t j = 0; j < n; ++j) {
          const double expected = rng::LaplaceUnitAt(key, first + j);
          ASSERT_EQ(0, std::memcmp(&out[j], &expected, sizeof(double)))
              << "level " << static_cast<int>(level) << ", first " << first
              << ", n " << n << ", j " << j;
        }
      }
    }
  }
}

TEST(SimdKernelTest, LaplaceUnitsAgreeAcrossLevelsOnLongRuns) {
  const rng::NoiseKey key = rng::NoiseKey::FromSeed(77);
  const std::size_t n = 1 << 16;
  std::vector<double> scalar(n);
  simd::Kernels(IsaLevel::kScalar).laplace_units(key, 3, n, scalar.data());
  for (const IsaLevel level : HostLevels()) {
    std::vector<double> out(n);
    simd::Kernels(level).laplace_units(key, 3, n, out.data());
    EXPECT_EQ(0, std::memcmp(scalar.data(), out.data(), n * sizeof(double)))
        << "level " << static_cast<int>(level);
  }
}

TEST(SimdKernelTest, LaplaceUnitsRfc8439KnownAnswer) {
  // RFC 8439 §2.3.2: key 00 01 .. 1f, nonce 00:00:00:09:00:00:00:4a:
  // 00:00:00:00, block counter 1 — in the 64-bit counter layout, block
  // 0x0900000000000001 with nonce words {0x4a000000, 0}. Its 16 keystream
  // words are draws 8 * that block onward; every level must turn them
  // into the units of the per-index definition.
  rng::NoiseKey key;
  for (std::uint32_t i = 0; i < 8; ++i) {
    key.key[i] = (4 * i) | ((4 * i + 1) << 8) | ((4 * i + 2) << 16) |
                 ((4 * i + 3) << 24);
  }
  key.nonce = {0x4a000000, 0x00000000};
  constexpr std::uint32_t kBlock[16] = {
      0xe4e7f110, 0x15593bd1, 0x1fdd0f50, 0xc47120a3,
      0xc7f4d1c7, 0x0368c033, 0x9aaa2204, 0x4e6cd4c3,
      0x466482d2, 0x09aa9f07, 0x05d7c214, 0xa2028bd9,
      0xd19c12b5, 0xb94e16de, 0xe883d0cb, 0x4e3c50a2};
  std::uint64_t raw[8];
  for (int j = 0; j < 8; ++j) {
    raw[j] = kBlock[2 * j] | (std::uint64_t{kBlock[2 * j + 1]} << 32);
  }
  double expected[8];
  rng::LaplaceUnitsFromRaw(raw, 8, expected);
  const std::uint64_t first = 8 * 0x0900000000000001ULL;
  for (const IsaLevel level : HostLevels()) {
    double out[8];
    simd::Kernels(level).laplace_units(key, first, 8, out);
    EXPECT_EQ(0, std::memcmp(expected, out, sizeof(out)))
        << "level " << static_cast<int>(level);
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

TEST(SimdDispatchTest, ResolveReadsTheEnvironmentAndClampsToHost) {
  const IsaLevel best = simd::DetectBestIsa();
  // Restores the caller's PRIVELET_ISA when the test ends.
  const testutil::ScopedIsa restore(IsaLevel::kScalar);
  // ResolveIsa re-reads PRIVELET_ISA per call; unknown values are ignored.
  ASSERT_EQ(0, setenv("PRIVELET_ISA", "scalar", 1));
  EXPECT_EQ(IsaLevel::kScalar, simd::ResolveIsa());
  ASSERT_EQ(0, setenv("PRIVELET_ISA", "not-an-isa", 1));
  EXPECT_EQ(best, simd::ResolveIsa());
  // A request never resolves above the host's capability and never
  // rejects: over-asking clamps down to the best the host runs.
  ASSERT_EQ(0, setenv("PRIVELET_ISA", "avx512", 1));
  EXPECT_EQ(best, simd::ResolveIsa());
  ASSERT_EQ(0, setenv("PRIVELET_ISA", "avx2", 1));
  EXPECT_LE(static_cast<int>(simd::ResolveIsa()), static_cast<int>(best));
  ASSERT_EQ(0, unsetenv("PRIVELET_ISA"));
  EXPECT_EQ(best, simd::ResolveIsa());
}

// The batched kernel reads and writes lines at a row pitch (element k of
// line b at data[b + k * pitch]): matrix storage in core, a gathered
// panel (pitch == count) out of core. Its contract, for every transform,
// level, lane count and pitch >= count: ForwardLines is the single-line
// Forward and InverseLines the single-line Refine + Inverse, line for
// line and bit for bit, and InverseLines leaves its coefficients alone.
TEST(SimdPitchedLinesTest, PitchedLinesMatchPerLineTransform) {
  std::vector<std::unique_ptr<wavelet::Transform1D>> transforms;
  for (const std::size_t n : {1ul, 2ul, 3ul, 37ul, 101ul, 128ul}) {
    transforms.push_back(std::make_unique<wavelet::HaarTransform>(n));
  }
  transforms.push_back(std::make_unique<wavelet::NominalTransform>(
      std::make_shared<const data::Hierarchy>(
          data::Hierarchy::FromGroupSizes({2, 5, 3}).value())));
  transforms.push_back(std::make_unique<wavelet::IdentityTransform>(6));

  for (const auto& t : transforms) {
    const std::size_t n = t->input_size();
    const std::size_t m = t->coefficient_count();
    std::vector<double> line(m), want(m), got(m), want_back(n), got_back(n),
        line_scratch(t->scratch_size());
    for (const std::size_t count : {1ul, 3ul, 17ul}) {
      for (const std::size_t pitch : {count, count + 5}) {
        const std::vector<double> data = RandomDoubles(pitch * n, 31);
        const std::vector<double> noise = RandomDoubles(pitch * m, 37);
        for (const IsaLevel level : HostLevels()) {
          const auto where = [&](const char* what, std::size_t b) {
            return std::string(what) + " line " + std::to_string(b) + ", " +
                   std::string(t->name()) + " n " + std::to_string(n) +
                   ", count " + std::to_string(count) + ", pitch " +
                   std::to_string(pitch) + ", level " +
                   std::to_string(static_cast<int>(level));
          };
          std::vector<double> scratch(t->lines_scratch_size(count));
          std::vector<double> coeffs(pitch * m, 0.0);
          t->ForwardLines(count, data.data(), coeffs.data(), pitch,
                          scratch.data(), level);
          for (std::size_t b = 0; b < count; ++b) {
            for (std::size_t k = 0; k < n; ++k) line[k] = data[b + k * pitch];
            t->Forward(line.data(), want.data(), line_scratch.data(), level);
            for (std::size_t k = 0; k < m; ++k) got[k] = coeffs[b + k * pitch];
            ASSERT_EQ(want, got) << where("forward", b);
          }

          // Inverse: perturb the coefficients (so the nominal refinement
          // has work to do), then compare with per-line Refine + Inverse.
          for (std::size_t i = 0; i < coeffs.size(); ++i) coeffs[i] += noise[i];
          const std::vector<double> before = coeffs;
          std::vector<double> back(pitch * n, 0.0);
          t->InverseLines(count, coeffs.data(), back.data(), pitch,
                          scratch.data(), level);
          ASSERT_EQ(0, std::memcmp(before.data(), coeffs.data(),
                                   coeffs.size() * sizeof(double)))
              << where("coefficients written by inverse", 0);
          for (std::size_t b = 0; b < count; ++b) {
            for (std::size_t k = 0; k < m; ++k) line[k] = coeffs[b + k * pitch];
            t->Refine(line.data());
            t->Inverse(line.data(), want_back.data(), line_scratch.data(),
                       level);
            for (std::size_t k = 0; k < n; ++k) {
              got_back[k] = back[b + k * pitch];
            }
            ASSERT_EQ(want_back, got_back) << where("inverse", b);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace privelet
