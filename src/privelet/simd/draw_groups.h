// Shared driver of the laplace_units kernels (internal to the kernel TUs):
// cuts [first, first + n) into groups of kBlocks consecutive ChaCha20
// blocks (8 draws each) and hands each group to the level's group kernel.
// A group fully inside the run is written in place; a partial one (an
// unaligned start, or the run's end) is computed whole into a staging
// buffer and trimmed. Each draw is a pure function of its index, so the
// grouping never changes a bit.
#ifndef PRIVELET_SIMD_DRAW_GROUPS_H_
#define PRIVELET_SIMD_DRAW_GROUPS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace privelet::simd {

/// group(block, out) writes the 8 * kBlocks draws of blocks
/// [block, block + kBlocks) to out.
template <std::size_t kBlocks, typename Group>
inline void ForEachDrawGroup(std::uint64_t first, std::size_t n, double* out,
                             Group&& group) {
  constexpr std::size_t kDraws = 8 * kBlocks;
  while (n > 0) {
    const std::uint64_t block = first / 8;
    const std::size_t skip = static_cast<std::size_t>(first % 8);
    std::size_t take;
    if (skip == 0 && n >= kDraws) {
      group(block, out);
      take = kDraws;
    } else {
      alignas(64) double staged[kDraws];
      group(block, staged);
      take = std::min(kDraws - skip, n);
      std::copy_n(staged + skip, take, out);
    }
    first += take;
    out += take;
    n -= take;
  }
}

}  // namespace privelet::simd

#endif  // PRIVELET_SIMD_DRAW_GROUPS_H_
