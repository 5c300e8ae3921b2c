// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum the
// frame codec, the checkpoint format, the sealed worker context and the
// simulated network's CRC-detect path use to reject corrupted payloads.
// Header-only; crc32("123456789") = 0xCBF43926.
//
// crc32_update runs slicing-by-16 (Kounavis & Berry): sixteen 256-entry
// tables derived from the one polynomial fold 16 input bytes per step with
// 16 independent lookups, several times faster than the byte-at-a-time
// loop, which still handles the last len % 16 bytes.  Both are the same
// polynomial division, so every checksum is the bytewise one.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace tme {

namespace detail {

// table[0] is the classic bytewise table; table[k][i] is the CRC state after
// byte i followed by k zero bytes, which is what byte i contributes when it
// sits k bytes before the end of a 16-byte slice.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 16>;

inline const Crc32Tables& crc32_tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = t[k - 1][i];
        t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
    return t;
  }();
  return tables;
}

// Little-endian 32-bit load on any host byte order (one plain load on
// little-endian targets once optimised).
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

// Incremental update: start from 0 and feed buffers in order; chaining
// crc32_update calls over a split buffer equals one call over the whole.
inline std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                                  std::size_t len) {
  const auto& t = detail::crc32_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  crc ^= 0xFFFFFFFFu;
  for (; len >= 16; len -= 16, p += 16) {
    const std::uint32_t a = crc ^ detail::load_le32(p);
    const std::uint32_t b = detail::load_le32(p + 4);
    const std::uint32_t c = detail::load_le32(p + 8);
    const std::uint32_t d = detail::load_le32(p + 12);
    crc = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^ t[13][(a >> 16) & 0xFFu] ^
          t[12][a >> 24] ^ t[11][b & 0xFFu] ^ t[10][(b >> 8) & 0xFFu] ^
          t[9][(b >> 16) & 0xFFu] ^ t[8][b >> 24] ^ t[7][c & 0xFFu] ^
          t[6][(c >> 8) & 0xFFu] ^ t[5][(c >> 16) & 0xFFu] ^ t[4][c >> 24] ^
          t[3][d & 0xFFu] ^ t[2][(d >> 8) & 0xFFu] ^ t[1][(d >> 16) & 0xFFu] ^
          t[0][d >> 24];
  }
  for (std::size_t i = 0; i < len; ++i) {
    crc = t[0][(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(const void* data, std::size_t len) {
  return crc32_update(0, data, len);
}

}  // namespace tme
