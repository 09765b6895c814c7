// CRC-32 (reflected, polynomial 0xEDB88320 — the IEEE 802.3 / zlib
// variant) used to integrity-check the PVLS release snapshots. Exposed as
// a public header so tests and external tooling can verify or craft
// snapshot files without re-implementing the checksum.
#ifndef PRIVELET_STORAGE_CRC32_H_
#define PRIVELET_STORAGE_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace privelet::storage {

namespace internal {

constexpr std::array<std::uint32_t, 256> MakeCrc32Table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[n] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    MakeCrc32Table();

// Slicing-by-16 tables (Kounavis & Berry, ISCC'05): kCrc32Slices[k][b] is
// the CRC state of byte b followed by k zero bytes, so one step folds 16
// input bytes with 16 independent lookups instead of a 16-long chain.
using Crc32Slices = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr Crc32Slices MakeCrc32Slices() {
  Crc32Slices slices{};
  slices[0] = kCrc32Table;
  for (std::size_t k = 1; k < slices.size(); ++k) {
    for (std::size_t n = 0; n < 256; ++n) {
      const std::uint32_t prev = slices[k - 1][n];
      slices[k][n] = kCrc32Table[prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return slices;
}

inline constexpr Crc32Slices kCrc32Slices = MakeCrc32Slices();

}  // namespace internal

/// Initial CRC state (before the conventional final inversion).
inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFu;

/// Folds `len` bytes into a running CRC state. Start from kCrc32Init and
/// finish with Crc32Finish; intermediate states may be threaded through
/// any number of Crc32Update calls (streaming).
inline std::uint32_t Crc32Update(std::uint32_t state, const void* data,
                                 std::size_t len) {
  const auto& t = internal::kCrc32Slices;
  const auto* p = static_cast<const unsigned char*>(data);
  // Byte-indexed, so the result does not depend on host endianness.
  for (; len >= 16; p += 16, len -= 16) {
    state = t[15][p[0] ^ (state & 0xFFu)] ^
            t[14][p[1] ^ ((state >> 8) & 0xFFu)] ^
            t[13][p[2] ^ ((state >> 16) & 0xFFu)] ^
            t[12][p[3] ^ (state >> 24)] ^
            t[11][p[4]] ^ t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^
            t[7][p[8]] ^ t[6][p[9]] ^ t[5][p[10]] ^ t[4][p[11]] ^
            t[3][p[12]] ^ t[2][p[13]] ^ t[1][p[14]] ^ t[0][p[15]];
  }
  for (; len > 0; ++p, --len) {
    state = t[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

/// Final inversion turning a CRC state into the published checksum value.
inline std::uint32_t Crc32Finish(std::uint32_t state) { return ~state; }

/// One-shot convenience: the CRC-32 of a buffer.
inline std::uint32_t Crc32(const void* data, std::size_t len) {
  return Crc32Finish(Crc32Update(kCrc32Init, data, len));
}

}  // namespace privelet::storage

#endif  // PRIVELET_STORAGE_CRC32_H_
