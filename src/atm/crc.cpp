#include "atm/crc.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace hni::atm {
namespace {

// --- CRC-10 ---------------------------------------------------------

constexpr std::uint16_t kCrc10Poly = 0x633;  // x^10+x^9+x^5+x^4+x+1

constexpr std::array<std::uint16_t, 256> make_crc10_table() {
  std::array<std::uint16_t, 256> table{};
  for (int i = 0; i < 256; ++i) {
    // Process one input byte with the 10-bit register aligned so that
    // the register's bit 9 is the polynomial's highest remainder bit.
    std::uint16_t crc = static_cast<std::uint16_t>(i << 2);  // byte at top
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x200) ? static_cast<std::uint16_t>(((crc << 1) ^
                                                        kCrc10Poly) &
                                                       0x3FF)
                          : static_cast<std::uint16_t>((crc << 1) & 0x3FF);
    }
    table[static_cast<std::size_t>(i)] = crc;
  }
  return table;
}

constexpr auto kCrc10Table = make_crc10_table();

// --- CRC-32 (reflected 0x04C11DB7 => 0xEDB88320) ----------------------
//
// Slicing-by-8: table[0] is the classic bytewise table; table[k][b] is
// the CRC contribution of byte b followed by k zero bytes. Eight input
// bytes then fold into the register with eight independent lookups.

constexpr std::uint32_t kCrc32PolyReflected = 0xEDB88320u;

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kCrc32PolyReflected : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32 = make_crc32_tables();

// The slicing step reads input words as little-endian integers.
static_assert(std::endian::native == std::endian::little,
              "CRC-32 slicing-by-8 assumes a little-endian host");

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t w = 0;
  std::memcpy(&w, p, sizeof w);
  return w;
}

}  // namespace

std::uint16_t crc10(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0;
  for (std::uint8_t b : data) {
    const auto idx =
        static_cast<std::size_t>(((crc >> 2) ^ b) & 0xFF);
    crc = static_cast<std::uint16_t>(((crc << 8) ^ kCrc10Table[idx]) & 0x3FF);
  }
  return crc;
}

void Crc32::update(std::span<const std::uint8_t> data) {
  std::uint32_t crc = state_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_u32(p) ^ crc;
    const std::uint32_t hi = load_u32(p + 4);
    crc = kCrc32[7][lo & 0xFFu] ^ kCrc32[6][(lo >> 8) & 0xFFu] ^
          kCrc32[5][(lo >> 16) & 0xFFu] ^ kCrc32[4][lo >> 24] ^
          kCrc32[3][hi & 0xFFu] ^ kCrc32[2][(hi >> 8) & 0xFFu] ^
          kCrc32[1][(hi >> 16) & 0xFFu] ^ kCrc32[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ kCrc32[0][(crc ^ *p) & 0xFFu];
  }
  state_ = crc;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  Crc32 c;
  c.update(data);
  return c.value();
}

}  // namespace hni::atm
