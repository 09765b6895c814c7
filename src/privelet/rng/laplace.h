// Counter-based Laplace noise: every draw is a pure function of a key and
// its index, so any split of an index range across threads, panels or ISA
// levels reproduces the same bits. This header holds the per-index
// definition; simd::KernelTable::laplace_units is its batched form at each
// ISA level and must match it bit-for-bit.
//
//   raw(i)  = words 2(i mod 8) and 2(i mod 8)+1 (low, high) of the ChaCha20
//             block (RFC 8439) with 64-bit block counter i / 8
//   u       = ((raw >> 11) + 1) * 2^-53 - 1/2              in (-1/2, 1/2]
//   tail    = max(1 - 2|u|, 1e-300)                         in [1e-300, 1]
//   unit(i) = (u >= 0 ? -1 : 1) * Log(tail)                 ~ Laplace(1)
//
// Every step before Log is exact in binary64, and Log is one fixed
// sequence of correctly rounded operations (no FMA, no libm), so every
// compiled copy of these steps (rng/laplace_stages.h, built once per ISA
// level) agrees bit-for-bit.
#ifndef PRIVELET_RNG_LAPLACE_H_
#define PRIVELET_RNG_LAPLACE_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "privelet/rng/splitmix64.h"

namespace privelet::rng {

/// The ChaCha20 key of a noise stream: state words 4..11 (key) and 14..15
/// (nonce); words 12..13 hold the 64-bit block counter.
struct NoiseKey {
  std::array<std::uint32_t, 8> key{};
  std::array<std::uint32_t, 2> nonce{};

  /// Expands a 64-bit seed into the key words with SplitMix64 (nonce 0).
  /// The seed is no longer written into a release, but it is still the
  /// user-chosen `--seed` (default 7), so this key is not secret: see
  /// ROADMAP item 1.
  static NoiseKey FromSeed(std::uint64_t seed) {
    NoiseKey k;
    SplitMix64 sm(seed);
    for (std::size_t i = 0; i < k.key.size(); i += 2) {
      const std::uint64_t word = sm.Next();
      k.key[i] = static_cast<std::uint32_t>(word);
      k.key[i + 1] = static_cast<std::uint32_t>(word >> 32);
    }
    return k;
  }
};

/// The ChaCha20 block function (RFC 8439 §2.3) with the 64-bit counter in
/// state words 12 (low) and 13 (high): out[0..16) = the 16 keystream words.
void ChaCha20Block(const NoiseKey& key, std::uint64_t counter,
                   std::uint32_t out[16]);

/// ln(x) for a positive normal double: fdlibm's reduction to
/// x = 2^k * m with m in [sqrt(1/2), sqrt(2)), s = f / (2 + f) with
/// f = m - 1, and its degree-7 polynomial in s^2. Within 1 ulp of a
/// correctly rounded log.
double Log(double x);

/// out[i] = the unit draw of raw 64-bit draw raw[i] (the steps after
/// ChaCha20 above), for i in [0, n).
void LaplaceUnitsFromRaw(const std::uint64_t* raw, std::size_t n,
                         double* out);

/// unit(i): one Laplace(1) draw of the stream `key` at `index`.
double LaplaceUnitAt(const NoiseKey& key, std::uint64_t index);

}  // namespace privelet::rng

#endif  // PRIVELET_RNG_LAPLACE_H_
