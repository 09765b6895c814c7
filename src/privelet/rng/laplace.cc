#include "privelet/rng/laplace.h"

#include <cstring>

#include "privelet/rng/laplace_stages.h"

namespace privelet::rng {

namespace {

inline std::uint32_t Rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

inline void QuarterRound(std::uint32_t* x, int a, int b, int c, int d) {
  x[a] += x[b];
  x[d] = Rotl32(x[d] ^ x[a], 16);
  x[c] += x[d];
  x[b] = Rotl32(x[b] ^ x[c], 12);
  x[a] += x[b];
  x[d] = Rotl32(x[d] ^ x[a], 8);
  x[c] += x[d];
  x[b] = Rotl32(x[b] ^ x[c], 7);
}

}  // namespace

void ChaCha20Block(const NoiseKey& key, std::uint64_t counter,
                   std::uint32_t out[16]) {
  const std::uint32_t input[16] = {
      0x61707865, 0x3320646e, 0x79622d32, 0x6b206574,  // "expand 32-byte k"
      key.key[0], key.key[1], key.key[2], key.key[3],
      key.key[4], key.key[5], key.key[6], key.key[7],
      static_cast<std::uint32_t>(counter),
      static_cast<std::uint32_t>(counter >> 32),
      key.nonce[0], key.nonce[1]};
  std::uint32_t x[16];
  std::memcpy(x, input, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    QuarterRound(x, 0, 4, 8, 12);
    QuarterRound(x, 1, 5, 9, 13);
    QuarterRound(x, 2, 6, 10, 14);
    QuarterRound(x, 3, 7, 11, 15);
    QuarterRound(x, 0, 5, 10, 15);
    QuarterRound(x, 1, 6, 11, 12);
    QuarterRound(x, 2, 7, 8, 13);
    QuarterRound(x, 3, 4, 9, 14);
  }
  for (int i = 0; i < 16; ++i) out[i] = x[i] + input[i];
}

double Log(double x) {
  double f, dk;
  LogReduce(x, &f, &dk);
  return LogFromReduced(f, dk);
}

void LaplaceUnitsFromRaw(const std::uint64_t* raw, std::size_t n,
                         double* out) {
  StagedUnitsFromRaw(raw, n, out);
}

double LaplaceUnitAt(const NoiseKey& key, std::uint64_t index) {
  std::uint32_t block[16];
  ChaCha20Block(key, index / 8, block);
  const std::size_t word = 2 * (index % 8);
  const std::uint64_t raw =
      block[word] | (std::uint64_t{block[word + 1]} << 32);
  double unit;
  LaplaceUnitsFromRaw(&raw, 1, &unit);
  return unit;
}

}  // namespace privelet::rng
