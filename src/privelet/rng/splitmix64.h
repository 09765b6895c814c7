// SplitMix64: tiny splittable generator, used to seed Xoshiro256++, to
// expand noise keys and to derive independent per-task seeds. Reference: Steele, Lea, Flood (2014),
// "Fast splittable pseudorandom number generators".
#ifndef PRIVELET_RNG_SPLITMIX64_H_
#define PRIVELET_RNG_SPLITMIX64_H_

#include <cstdint>

namespace privelet::rng {

/// 64-bit SplitMix generator. Deterministic for a given seed; passes
/// standard statistical batteries for its intended use (seeding, seed
/// derivation, key expansion). Not a noise source itself.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next 64-bit output.
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Derives the i-th child seed from a root seed; children are statistically
/// independent streams for distinct i. Used to give each mechanism
/// invocation / workload its own stream.
inline std::uint64_t DeriveSeed(std::uint64_t root_seed, std::uint64_t index) {
  SplitMix64 sm(root_seed ^ (0xA0761D6478BD642FULL * (index + 1)));
  sm.Next();
  return sm.Next();
}

}  // namespace privelet::rng

#endif  // PRIVELET_RNG_SPLITMIX64_H_
