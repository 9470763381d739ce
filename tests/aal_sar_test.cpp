// Tests for the AAL-agnostic facade and the shared helper types.

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>

#include "aal/sar.hpp"

namespace hni::aal {
namespace {

atm::VcId kVc{0, 5};

// Scalar reference for make_pattern: the seed tag, then one xorshift64
// (13, 7, 17) step per byte from a length-keyed state.
Bytes pattern_reference(std::size_t n, std::uint64_t seed) {
  Bytes out(n);
  const std::size_t tag = n < 8 ? n : 8;
  for (std::size_t i = 0; i < tag; ++i) {
    out[i] = static_cast<std::uint8_t>(seed >> (8 * i));
  }
  std::uint64_t x = (seed ^ (static_cast<std::uint64_t>(n) << 32)) *
                        0x9E3779B97F4A7C15ull +
                    0xD1B54A32D192ED03ull;
  for (std::size_t i = tag; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<std::uint8_t>(x);
  }
  return out;
}

constexpr std::uint64_t kSeeds[] = {0, 1, 77, 0xABCD, 0xDEADBEEFCAFEF00Dull,
                                    ~0ull};

TEST(AalTypes, Names) {
  EXPECT_EQ(to_string(AalType::kAal1), "AAL1");
  EXPECT_EQ(to_string(AalType::kAal34), "AAL3/4");
  EXPECT_EQ(to_string(AalType::kAal5), "AAL5");
}

TEST(AalTypes, ErrorNames) {
  EXPECT_EQ(to_string(ReassemblyError::kNone), "none");
  EXPECT_EQ(to_string(ReassemblyError::kCrc), "crc");
  EXPECT_EQ(to_string(ReassemblyError::kTagMismatch), "tag-mismatch");
}

TEST(AalTypes, PayloadPerCell) {
  EXPECT_EQ(payload_per_cell(AalType::kAal1), 47u);
  EXPECT_EQ(payload_per_cell(AalType::kAal34), 44u);
  EXPECT_EQ(payload_per_cell(AalType::kAal5), 48u);
}

TEST(Pattern, SelfIdentifyingVerification) {
  for (std::size_t n : {4u, 8u, 9u, 100u, 9180u}) {
    const Bytes p = make_pattern(n, 0xABCDu + n);
    EXPECT_TRUE(verify_pattern(p)) << n;
    EXPECT_TRUE(verify_pattern(p, 0xABCDu + n)) << n;
  }
}

TEST(Pattern, DetectsCorruption) {
  Bytes p = make_pattern(64, 77);
  p[32] ^= 1;
  EXPECT_FALSE(verify_pattern(p));
}

TEST(Pattern, DetectsTruncation) {
  Bytes p = make_pattern(64, 77);
  p.resize(40);
  EXPECT_FALSE(verify_pattern(p));
}

TEST(Pattern, MatchesScalarReference) {
  for (const std::uint64_t seed : kSeeds) {
    for (std::size_t n = 0; n <= 72; ++n) {
      ASSERT_EQ(make_pattern(n, seed), pattern_reference(n, seed))
          << "n=" << n << " seed=" << seed;
    }
    for (const std::size_t n : {std::size_t{9180}, std::size_t{65535}}) {
      ASSERT_EQ(make_pattern(n, seed), pattern_reference(n, seed))
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(Pattern, BothFormsRejectEveryOneBitFlip) {
  // 77 bytes: the 8-byte tag, eight whole 8-byte blocks and a 5-byte
  // tail.
  const Bytes good = make_pattern(77, 0xABCD);
  for (std::size_t at = 0; at < good.size(); ++at) {
    Bytes p = good;
    p[at] ^= static_cast<std::uint8_t>(1u << (at % 8));
    EXPECT_FALSE(verify_pattern(p)) << "byte " << at;
    EXPECT_FALSE(verify_pattern(p, 0xABCD)) << "byte " << at;
  }
}

TEST(Pattern, BothFormsRejectLengthChanges) {
  // A cut to 9 bytes would leave one stream byte, which matches by
  // chance one time in 256; these cuts leave at least a whole block.
  const Bytes good = make_pattern(77, 0xABCD);
  for (const std::size_t len : {std::size_t{16}, std::size_t{40},
                                std::size_t{72}, std::size_t{76}}) {
    const Bytes cut(good.data(), good.data() + len);
    EXPECT_FALSE(verify_pattern(cut)) << "len " << len;
    EXPECT_FALSE(verify_pattern(cut, 0xABCD)) << "len " << len;
  }
  Bytes longer = good;
  longer.push_back(good.back());
  EXPECT_FALSE(verify_pattern(longer));
  EXPECT_FALSE(verify_pattern(longer, 0xABCD));
}

TEST(Pattern, StrictFormRejectsWrongSeed) {
  const Bytes p = make_pattern(77, 0xABCD);
  EXPECT_FALSE(verify_pattern(p, 0xABCE));
  EXPECT_FALSE(verify_pattern(p, 0xABCDull | (1ull << 63)));
}

TEST(Pattern, UpToEightBytesIsAllTagAndVerifiesVacuously) {
  // The self-identifying form reads its seed from the first 8 bytes, so
  // an SDU of 8 bytes or fewer has nothing left to check: any content
  // verifies. One byte more and the stream is checked.
  for (std::size_t n = 0; n <= 8; ++n) {
    EXPECT_TRUE(verify_pattern(Bytes(n, 0x5A))) << n;
    EXPECT_TRUE(verify_pattern(make_pattern(n, 0xABCD))) << n;
  }
  Bytes nine = make_pattern(9, 0xABCD);
  EXPECT_TRUE(verify_pattern(nine));
  nine[8] ^= 1;
  EXPECT_FALSE(verify_pattern(nine));
}

TEST(FrameSegmenter, DispatchesBothAals) {
  FrameSegmenter s5(AalType::kAal5, kVc);
  FrameSegmenter s34(AalType::kAal34, kVc, 3);
  const Bytes sdu = make_pattern(200, 1);
  EXPECT_EQ(s5.segment(sdu).size(), aal5_cell_count(200));
  EXPECT_EQ(s34.segment(sdu).size(), aal34_cell_count(200));
}

TEST(FrameSegmenter, CellCountHelper) {
  EXPECT_EQ(FrameSegmenter::cell_count(AalType::kAal5, 9180), 192u);
  EXPECT_EQ(FrameSegmenter::cell_count(AalType::kAal34, 9180), 209u);
  EXPECT_EQ(FrameSegmenter::cell_count(AalType::kAal1, 94), 2u);
}

TEST(FrameSegmenter, RejectsAal1) {
  EXPECT_THROW(FrameSegmenter(AalType::kAal1, kVc), std::invalid_argument);
}

TEST(FrameReassembler, RejectsAal1) {
  EXPECT_THROW(FrameReassembler(AalType::kAal1), std::invalid_argument);
}

class FacadeRoundtrip : public ::testing::TestWithParam<AalType> {};

TEST_P(FacadeRoundtrip, DeliversThroughFacade) {
  const AalType aal = GetParam();
  FrameSegmenter seg(aal, kVc);
  FrameReassembler rx(aal);
  const Bytes sdu = make_pattern(1234, 42);
  std::optional<FrameDelivery> d;
  for (const auto& c : seg.segment(sdu)) {
    auto r = rx.push(c);
    if (r) d = std::move(r);
  }
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->ok());
  EXPECT_EQ(d->sdu, sdu);
  EXPECT_EQ(rx.pdus_ok(), 1u);
  EXPECT_EQ(rx.pdus_errored(), 0u);
  EXPECT_FALSE(rx.mid_pdu());
}

INSTANTIATE_TEST_SUITE_P(BothFramedAals, FacadeRoundtrip,
                         ::testing::Values(AalType::kAal5, AalType::kAal34));

TEST(FrameReassembler, MidPduReflectsState) {
  FrameReassembler rx(AalType::kAal5);
  FrameSegmenter seg(AalType::kAal5, kVc);
  auto cells = seg.segment(make_pattern(200, 1));
  rx.push(cells[0]);
  EXPECT_TRUE(rx.mid_pdu());
  rx.reset();
  EXPECT_FALSE(rx.mid_pdu());
}

TEST(FrameReassembler, ErrorsSurfaceThroughFacade) {
  FrameReassembler rx(AalType::kAal5);
  FrameSegmenter seg(AalType::kAal5, kVc);
  auto cells = seg.segment(make_pattern(300, 2));
  cells.erase(cells.begin() + 1);
  std::optional<FrameDelivery> d;
  for (const auto& c : cells) {
    auto r = rx.push(c);
    if (r) d = std::move(r);
  }
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->ok());
  EXPECT_EQ(rx.pdus_errored(), 1u);
}

}  // namespace
}  // namespace hni::aal
