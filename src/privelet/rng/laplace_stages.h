// The stages of a unit Laplace draw after ChaCha20 (rng/laplace.h), as
// internal-linkage functions: rng/laplace.cc and every ISA level's kernel
// table (simd/portable_kernels.h) include this header and compile their
// own copy at their own target flags. Do not include it from anywhere
// else; nothing here may have external linkage, or the linker could bind
// a baseline caller to a copy built for AVX-512.
//
// Each stage is a short chain of exact or correctly rounded operations,
// so every copy gives the same bits. The integer-to-double conversions
// use an exact exponent-OR construction, not a convert instruction: AVX2
// has none for 64-bit integers, so the loops would not vectorize.
#ifndef PRIVELET_RNG_LAPLACE_STAGES_H_
#define PRIVELET_RNG_LAPLACE_STAGES_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace privelet::rng {
namespace {

// fdlibm's e_log.c constants: ln 2 split so that k * kLn2Hi is exact, and
// the minimax polynomial R(z) = kLg1 z + ... + kLg7 z^7 ~
// (log(1 + f) - 2s) / s in z = s^2.
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kLg1 = 0x1.5555555555593p-1;
constexpr double kLg2 = 0x1.999999997fa04p-2;
constexpr double kLg3 = 0x1.2492494229359p-2;
constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
constexpr double kLg5 = 0x1.7466496cb03dep-3;
constexpr double kLg6 = 0x1.39a09d078c69fp-3;
constexpr double kLg7 = 0x1.2f112df3e5244p-3;
// Added to the mantissa bits, this carries into bit 52 exactly when the
// mantissa is >= sqrt(2)'s (top 20 bits 0x6a09c): fdlibm's 0x95f64 trick.
constexpr std::uint64_t kSqrt2Carry = std::uint64_t{0x95f64} << 32;

inline double BitsToDouble(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// v for v <= 2^53, as hi * 2^32 + lo: each half is OR-ed into the
// mantissa of a power of two (2^84, 2^52) and the power subtracted, so
// both halves and their sum are exact.
inline double U53ToDouble(std::uint64_t v) {
  return (BitsToDouble((v >> 32) | 0x4530000000000000ULL) - 0x1.0p84) +
         (BitsToDouble((v & 0xFFFFFFFFULL) | 0x4330000000000000ULL) - 0x1.0p52);
}

// raw -> (tail, neg_sign); every step is exact. u is never -0 or NaN, so
// fabs and copysign give the |u| and -sgn(u) of the definition.
inline void FrontHalf(std::uint64_t raw, double* tail, double* neg_sign) {
  const double u = (U53ToDouble(raw >> 11) + 1.0) * 0x1.0p-53 - 0.5;
  double t = 1.0 - 2.0 * std::fabs(u);
  if (t < 1e-300) t = 1e-300;
  *tail = t;
  *neg_sign = -std::copysign(1.0, u);
}

// x = 2^k * m: the mantissa bits get exponent 0 (m in [1, 2)) or, when
// they are at least sqrt(2)'s, exponent -1 (m in [sqrt(1/2), 1)) and k
// one larger. Returns f = m - 1 and dk = k, both exact.
inline void LogReduce(double x, double* f, double* dk) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const std::uint64_t mantissa = bits & 0x000FFFFFFFFFFFFFULL;
  const std::uint64_t carry = (mantissa + kSqrt2Carry) & (1ULL << 52);
  *f = BitsToDouble(mantissa | (carry ^ 0x3FF0000000000000ULL)) - 1.0;
  *dk = U53ToDouble((bits >> 52) + (carry >> 52)) - 1023.0;
}

inline double LogFromReduced(double f, double dk) {
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  const double hfsq = 0.5 * f * f;
  return dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
}

// out[i] = the unit draw of raw[i] for i in [0, n), stage by stage over
// blocks of draws: the iterations of each loop are independent, so they
// vectorize instead of waiting on one draw's long dependency chain.
inline void StagedUnitsFromRaw(const std::uint64_t* raw, std::size_t n,
                               double* out) {
  constexpr std::size_t kBlock = 128;
  double tail[kBlock], neg_sign[kBlock], f[kBlock], dk[kBlock];
  for (std::size_t done = 0; done < n; done += kBlock) {
    const std::size_t run = n - done < kBlock ? n - done : kBlock;
    for (std::size_t i = 0; i < run; ++i) {
      FrontHalf(raw[done + i], &tail[i], &neg_sign[i]);
    }
    for (std::size_t i = 0; i < run; ++i) LogReduce(tail[i], &f[i], &dk[i]);
    for (std::size_t i = 0; i < run; ++i) {
      out[done + i] = neg_sign[i] * LogFromReduced(f[i], dk[i]);
    }
  }
}

}  // namespace
}  // namespace privelet::rng

#endif  // PRIVELET_RNG_LAPLACE_STAGES_H_
