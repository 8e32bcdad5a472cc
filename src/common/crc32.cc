#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace sigmund {

namespace {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8 tables: tables[0] is the classic byte-at-a-time table, and
// tables[t][i] is the CRC of byte i followed by t zero bytes, so eight
// lookups advance the register over one 8-byte block.
constexpr Crc32Tables BuildTables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int t = 1; t < 8; ++t) {
      const uint32_t prev = tables[t - 1][i];
      tables[t][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Crc32Tables kTables = BuildTables();

// Little-endian load of four bytes (the CRC is defined over the byte
// stream, whatever the host order); memcpy keeps unaligned input safe.
inline uint32_t LoadLe32(const unsigned char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

uint32_t Crc32(std::string_view data) {
  return Crc32Finalize(Crc32Update(kCrc32Init, data));
}

}  // namespace sigmund
