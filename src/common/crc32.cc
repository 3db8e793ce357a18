#include "common/crc32.h"

#include <array>

namespace rpas {
namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320,
/// generated once at static-init time. tables[0] is the classic byte-at-a-
/// time table; tables[k][b] is tables[0][b] advanced through k more zero
/// bytes, so eight lookups fold eight input bytes into the register at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables BuildTables() {
  Tables tables{};
  for (uint32_t byte = 0; byte < 256; ++byte) {
    uint32_t crc = byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][byte] = crc;
  }
  for (uint32_t byte = 0; byte < 256; ++byte) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = tables[k - 1][byte];
      tables[k][byte] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

/// Little-endian 32-bit load from a possibly unaligned address (compiles to
/// one load on little-endian targets; correct on any byte order).
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const Tables kTables = BuildTables();
  const auto& t = kTables;
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  // Eight bytes per step: the low word is folded into the register, and
  // each of the eight bytes is looked up in the table that advances it past
  // the bytes that follow it in the block.
  for (; len >= 8; bytes += 8, len -= 8) {
    const uint32_t lo = LoadLe32(bytes) ^ crc;
    const uint32_t hi = LoadLe32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xFFu];
  }
  return ~crc;
}

}  // namespace rpas
