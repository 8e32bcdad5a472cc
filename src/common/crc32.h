#ifndef SIGMUND_COMMON_CRC32_H_
#define SIGMUND_COMMON_CRC32_H_

#include <stdint.h>

#include <string_view>

namespace sigmund {

// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum GFS-era
// storage systems use to detect torn writes and bit rot. Portable
// slicing-by-8: eight 256-entry tables advance the register over eight
// bytes per step, and the tail goes byte by byte. The result is the
// classic byte-at-a-time CRC-32, so every frame on disk keeps its bytes.
// Hardware CRC32C (SSE4.2 / ARMv8) is not used: it is a different
// polynomial, so it would change every stored checksum and need a format
// version.
uint32_t Crc32(std::string_view data);

// Incremental form: feed `crc` the result of the previous call (start
// from kCrc32Init) and finalize with Crc32Finalize.
inline constexpr uint32_t kCrc32Init = 0xFFFFFFFFu;
uint32_t Crc32Update(uint32_t crc, std::string_view data);
inline uint32_t Crc32Finalize(uint32_t crc) { return crc ^ 0xFFFFFFFFu; }

}  // namespace sigmund

#endif  // SIGMUND_COMMON_CRC32_H_
