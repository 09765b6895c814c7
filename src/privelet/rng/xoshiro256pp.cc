#include "privelet/rng/xoshiro256pp.h"

#include "privelet/common/check.h"
#include "privelet/rng/splitmix64.h"

namespace privelet::rng {

namespace {

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : state_) word = sm.Next();
}

std::uint64_t Xoshiro256pp::Next() {
  const std::uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Xoshiro256pp::NextDouble() {
  // Top 53 bits scaled by 2^-53: uniform on [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Xoshiro256pp::NextDoubleOpenZero() {
  // (k + 1) * 2^-53 for k in [0, 2^53): uniform on (0, 1].
  return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
}

std::uint64_t Xoshiro256pp::NextUint64InRange(std::uint64_t lo,
                                              std::uint64_t hi) {
  PRIVELET_CHECK(lo <= hi, "empty range");
  const std::uint64_t span = hi - lo;  // inclusive span - 1
  if (span == ~0ULL) return Next();
  const std::uint64_t bound = span + 1;
  // Classic rejection sampling: discard draws below 2^64 mod bound so the
  // surviving range is an exact multiple of bound (no modulo bias).
  const std::uint64_t threshold = (0 - bound) % bound;
  std::uint64_t draw;
  do {
    draw = Next();
  } while (draw < threshold);
  return lo + draw % bound;
}

}  // namespace privelet::rng
