#include "privelet/rng/laplace.h"

#include <algorithm>
#include <cmath>
#include <cstring>

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

// The three stages of a unit draw. Each is a short chain of exact or
// correctly rounded operations; LaplaceUnitsFromRaw runs them stage by
// stage over blocks of draws.

// raw -> (tail, neg_sign); every step is exact. u is never -0 or NaN, so
// fabs and copysign give the |u| and -sgn(u) of the definition.
inline void FrontHalf(std::uint64_t raw, double* tail, double* neg_sign) {
  const double v = static_cast<double>(raw >> 11);
  const double u = (v + 1.0) * 0x1.0p-53 - 0.5;
  double t = 1.0 - 2.0 * std::fabs(u);
  if (t < 1e-300) t = 1e-300;
  *tail = t;
  *neg_sign = -std::copysign(1.0, u);
}

// x = 2^k * m: the mantissa bits get exponent 0 (m in [1, 2)) or, when
// they are at least sqrt(2)'s, exponent -1 (m in [sqrt(1/2), 1)) and k
// one larger. Returns f = m - 1 and dk = k, both exact.
inline void LogReduce(double x, double* f, double* dk) {
  using namespace log_coeffs;
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const std::uint64_t mantissa = bits & 0x000FFFFFFFFFFFFFULL;
  const std::uint64_t carry = (mantissa + kSqrt2Carry) & (1ULL << 52);
  const std::uint64_t m_bits = mantissa | (carry ^ 0x3FF0000000000000ULL);
  double m;
  std::memcpy(&m, &m_bits, sizeof(m));
  *f = m - 1.0;
  *dk = static_cast<double>(
      static_cast<std::int64_t>((bits >> 52) + (carry >> 52)) - 1023);
}

inline double LogFromReduced(double f, double dk) {
  using namespace log_coeffs;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  const double hfsq = 0.5 * f * f;
  return dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
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
  // Stage by stage: the iterations of each loop are independent, so they
  // overlap (and the last loop vectorizes) instead of waiting on one
  // draw's long dependency chain.
  constexpr std::size_t kBlock = 128;
  double tail[kBlock], neg_sign[kBlock], f[kBlock], dk[kBlock];
  for (std::size_t done = 0; done < n; done += kBlock) {
    const std::size_t run = std::min(kBlock, n - done);
    for (std::size_t i = 0; i < run; ++i) {
      FrontHalf(raw[done + i], &tail[i], &neg_sign[i]);
    }
    for (std::size_t i = 0; i < run; ++i) LogReduce(tail[i], &f[i], &dk[i]);
    for (std::size_t i = 0; i < run; ++i) {
      out[done + i] = neg_sign[i] * LogFromReduced(f[i], dk[i]);
    }
  }
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
