// Payload CRC tests: CRC-32 against published vectors and a bit-serial
// reference (every head alignment and tail length of the slicing-by-8
// kernel), CRC-10 against a bit-serial reference, incremental use, and
// error detection properties.

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "atm/crc.hpp"
#include "sim/random.hpp"

namespace hni::atm {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

// Bit-serial CRC-10 reference: x^10+x^9+x^5+x^4+x+1, MSB first.
std::uint16_t crc10_reference(std::span<const std::uint8_t> data) {
  std::uint16_t reg = 0;
  for (std::uint8_t byte : data) {
    for (int bit = 7; bit >= 0; --bit) {
      const int in = (byte >> bit) & 1;
      const int top = (reg >> 9) & 1;
      reg = static_cast<std::uint16_t>((reg << 1) & 0x3FF);
      if (top ^ in) reg ^= 0x233;  // poly low bits: x^9+x^5+x^4+x+1
    }
  }
  return reg;
}

// Bit-serial CRC-32 reference: reflected 0xEDB88320, init and final
// XOR 0xFFFFFFFF.
std::uint32_t crc32_reference(std::span<const std::uint8_t> data) {
  std::uint32_t reg = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    reg ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      reg = (reg & 1u) ? (reg >> 1) ^ 0xEDB88320u : reg >> 1;
    }
  }
  return reg ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return data;
}

TEST(Crc32, CheckValue123456789) {
  // The canonical CRC-32 check value.
  const auto data = bytes_of("123456789");
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0x00000000u);
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(bytes_of("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(bytes_of("abc")), 0x352441C2u);
  EXPECT_EQ(crc32(bytes_of("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32, IncrementalEqualsOneShot) {
  const auto data = bytes_of("segmentation and reassembly");
  Crc32 inc;
  inc.update(std::span<const std::uint8_t>(data.data(), 7));
  inc.update(std::span<const std::uint8_t>(data.data() + 7,
                                           data.size() - 7));
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32, MatchesBitSerialAtEveryOffsetAndLength) {
  // Start offsets 0..7 give every head alignment of the 8-byte loads;
  // lengths 0..80 give every tail length several times over.
  const auto buf = random_bytes(8 + 80, 11);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 80; ++len) {
      const std::span<const std::uint8_t> data(buf.data() + offset, len);
      ASSERT_EQ(crc32(data), crc32_reference(data))
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32, MatchesBitSerialOnLargeBuffers) {
  for (const std::size_t len : {std::size_t{9180}, std::size_t{65535}}) {
    const auto data = random_bytes(len, len);
    EXPECT_EQ(crc32(data), crc32_reference(data)) << "len=" << len;
  }
}

TEST(Crc32, SplitAtEveryOffsetEqualsOneShot) {
  const auto data = random_bytes(100, 12);
  const std::uint32_t whole = crc32(data);
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    Crc32 inc;
    inc.update(std::span<const std::uint8_t>(data.data(), cut));
    inc.update(std::span<const std::uint8_t>(data.data() + cut,
                                             data.size() - cut));
    EXPECT_EQ(inc.value(), whole) << "cut=" << cut;
  }
}

TEST(Crc32, ResetRestartsState) {
  Crc32 c;
  c.update(bytes_of("garbage"));
  c.reset();
  c.update(bytes_of("123456789"));
  EXPECT_EQ(c.value(), 0xCBF43926u);
}

TEST(Crc32, DetectsSingleBitFlips) {
  sim::Rng rng(99);
  auto data = bytes_of("some payload bytes for flipping");
  const std::uint32_t good = crc32(data);
  for (int trial = 0; trial < 64; ++trial) {
    const auto byte = rng.uniform_int(0, data.size() - 1);
    const auto bit = rng.uniform_int(0, 7);
    data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    EXPECT_NE(crc32(data), good);
    data[byte] ^= static_cast<std::uint8_t>(1u << bit);
  }
}

TEST(Crc10, MatchesBitSerialReference) {
  sim::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t len = 1 + rng.uniform_int(0, 63);
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    EXPECT_EQ(crc10(data), crc10_reference(data)) << "len=" << len;
  }
}

TEST(Crc10, TenBitRange) {
  sim::Rng rng(8);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> data(48);
    for (auto& b : data) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    EXPECT_LE(crc10(data), 0x3FFu);
  }
}

TEST(Crc10, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> data(48, 0x42);
  const std::uint16_t good = crc10(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    data[byte] ^= 0x10;
    EXPECT_NE(crc10(data), good) << "byte " << byte;
    data[byte] ^= 0x10;
  }
}

TEST(Crc10, ZeroMessageZeroCrc) {
  std::vector<std::uint8_t> zeros(16, 0);
  EXPECT_EQ(crc10(zeros), 0u);
}

}  // namespace
}  // namespace hni::atm
