// Xoshiro256++: the sequential generator behind the synthetic data
// generators, workload builders and tests. Hand-rolled and deterministic
// across platforms for reproducible experiments. Privacy noise does not
// use it: see the counter-based stream of rng/laplace.h.
// Reference: Blackman & Vigna (2019), "Scrambled linear pseudorandom number
// generators".
#ifndef PRIVELET_RNG_XOSHIRO256PP_H_
#define PRIVELET_RNG_XOSHIRO256PP_H_

#include <cstddef>
#include <cstdint>

namespace privelet::rng {

/// 256-bit-state generator with 64-bit output. Satisfies the subset of the
/// UniformRandomBitGenerator interface the library uses.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from SplitMix64(seed), per the authors'
  /// recommendation.
  explicit Xoshiro256pp(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit output.
  std::uint64_t Next();

  std::uint64_t operator()() { return Next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  /// Uniform double in (0, 1]; never returns exactly 0 (safe for log()).
  double NextDoubleOpenZero();

  /// Uniform integer in [lo, hi] inclusive. Uses rejection sampling, so the
  /// result is exactly uniform. Requires lo <= hi.
  std::uint64_t NextUint64InRange(std::uint64_t lo, std::uint64_t hi);

 private:
  std::uint64_t state_[4];
};

}  // namespace privelet::rng

#endif  // PRIVELET_RNG_XOSHIRO256PP_H_
