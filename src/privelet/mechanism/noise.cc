#include "privelet/mechanism/noise.h"

#include <algorithm>
#include <cmath>

#include "privelet/common/check.h"
#include "privelet/simd/kernels.h"

namespace privelet::mechanism {

void AddLaplaceNoise(std::span<double> values, double magnitude,
                     const rng::NoiseKey& key, common::ThreadPool* pool) {
  PRIVELET_CHECK(std::isfinite(magnitude) && magnitude > 0.0,
                 "Laplace magnitude must be finite and > 0");
  const simd::KernelTable& kernels = simd::Kernels(simd::ResolveIsa());
  // Chunks and blocks are whole 128-draw groups, so laplace_units never
  // computes a draw it discards except at the end of `values`.
  common::ParallelFor(
      pool, values.size(), /*grain=*/16384,
      [&](std::size_t begin, std::size_t end) {
        constexpr std::size_t kBlock = 512;
        double unit[kBlock];
        for (std::size_t i = begin; i < end; i += kBlock) {
          const std::size_t run = std::min(kBlock, end - i);
          kernels.laplace_units(key, i, run, unit);
          kernels.row_add_scaled(values.data() + i, unit, magnitude, run);
        }
      });
}

}  // namespace privelet::mechanism
