// ATM cell header codec tests: field packing, both header formats,
// serialization roundtrips, and the PTI helpers.

#include <gtest/gtest.h>

#include <type_traits>

#include "atm/cell.hpp"
#include "atm/hec.hpp"

namespace hni::atm {
namespace {

TEST(CellHeader, UniRoundtrip) {
  CellHeader h;
  h.gfc = 0xA;
  h.vc = {0x5C, 0xBEEF};
  h.pti = Pti::kUserData1;
  h.clp = true;
  std::array<std::uint8_t, 4> raw{};
  encode_header(h, HeaderFormat::kUni, raw);
  const CellHeader back = decode_header(raw, HeaderFormat::kUni);
  EXPECT_EQ(back, h);
}

TEST(CellHeader, NniRoundtripWideVpi) {
  CellHeader h;
  h.vc = {0xABC, 0x1234};  // 12-bit VPI only representable at NNI
  h.pti = Pti::kOamSegment;
  std::array<std::uint8_t, 4> raw{};
  encode_header(h, HeaderFormat::kNni, raw);
  const CellHeader back = decode_header(raw, HeaderFormat::kNni);
  EXPECT_EQ(back.vc, h.vc);
  EXPECT_EQ(back.pti, h.pti);
  EXPECT_EQ(back.gfc, 0);
}

TEST(CellHeader, FieldWidthViolationsThrow) {
  std::array<std::uint8_t, 4> raw{};
  CellHeader h;
  h.gfc = 0x10;  // 5 bits
  EXPECT_THROW(encode_header(h, HeaderFormat::kUni, raw), std::out_of_range);
  h.gfc = 0;
  h.vc.vpi = 0x100;  // 9 bits: too wide for UNI
  EXPECT_THROW(encode_header(h, HeaderFormat::kUni, raw), std::out_of_range);
  // ...but fine for NNI.
  EXPECT_NO_THROW(encode_header(h, HeaderFormat::kNni, raw));
  h.vc.vpi = 0x1000;  // 13 bits: too wide even for NNI
  EXPECT_THROW(encode_header(h, HeaderFormat::kNni, raw), std::out_of_range);
}

TEST(CellHeader, KnownBitLayout) {
  // GFC=0, VPI=1, VCI=5, PTI=0, CLP=0 (UNI):
  //   octet0 = 0000 0000, octet1 = 0001 0000, octet2 = 0000 0000,
  //   octet3 = 0101 0000
  CellHeader h;
  h.vc = {1, 5};
  std::array<std::uint8_t, 4> raw{};
  encode_header(h, HeaderFormat::kUni, raw);
  EXPECT_EQ(raw[0], 0x00);
  EXPECT_EQ(raw[1], 0x10);
  EXPECT_EQ(raw[2], 0x00);
  EXPECT_EQ(raw[3], 0x50);
}

TEST(Pti, UserDataAndAuu) {
  EXPECT_TRUE(pti_is_user_data(Pti::kUserData0));
  EXPECT_TRUE(pti_is_user_data(Pti::kUserDataCong1));
  EXPECT_FALSE(pti_is_user_data(Pti::kOamSegment));
  EXPECT_FALSE(pti_is_user_data(Pti::kResourceMgmt));
  EXPECT_FALSE(pti_auu(Pti::kUserData0));
  EXPECT_TRUE(pti_auu(Pti::kUserData1));
  EXPECT_TRUE(pti_auu(Pti::kUserDataCong1));
  EXPECT_FALSE(pti_auu(Pti::kOamEndToEnd));  // AUU only for user data
}

TEST(Cell, SerializeRoundtripPreservesEverything) {
  Cell cell;
  cell.header.vc = {3, 77};
  cell.header.pti = Pti::kUserData1;
  cell.header.clp = true;
  for (std::size_t i = 0; i < kPayloadSize; ++i) {
    cell.payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const auto wire = cell.serialize(HeaderFormat::kUni);
  ASSERT_EQ(wire.size(), kCellSize);
  const Cell back = Cell::deserialize(wire, HeaderFormat::kUni);
  EXPECT_EQ(back.header, cell.header);
  EXPECT_EQ(back.payload, cell.payload);
}

TEST(Cell, SerializeWritesValidHec) {
  Cell cell;
  cell.header.vc = {9, 1234};
  const auto wire = cell.serialize(HeaderFormat::kUni);
  EXPECT_TRUE(hec_check(
      std::span<const std::uint8_t, 4>(wire.data(), 4), wire[4]));
}

TEST(VcId, EqualityAndOrdering) {
  EXPECT_EQ((VcId{1, 2}), (VcId{1, 2}));
  EXPECT_NE((VcId{1, 2}), (VcId{1, 3}));
  EXPECT_LT((VcId{1, 2}), (VcId{2, 0}));
  EXPECT_EQ((VcId{4, 42}).to_string(), "4/42");
}

TEST(VcId, HashSpreadsVpiAndVci) {
  const std::size_t h1 = std::hash<VcId>{}(VcId{0, 1});
  const std::size_t h2 = std::hash<VcId>{}(VcId{1, 0});
  EXPECT_NE(h1, h2);
}

TEST(VcId, LabelPacksVpiAndVciLosslessly) {
  // The packed 32-bit label is the data plane's key; VPI and VCI must
  // each keep their full field width. Boundary values for both header
  // formats: UNI VPI tops out at 255, NNI at 4095, VCI at 65535.
  const VcId cases[] = {
      {0, 0},           {0, 1},           {1, 0},
      {kMaxUniVpi, 0},  {kMaxUniVpi, 0xFFFF},
      {kMaxNniVpi, 0},  {kMaxNniVpi, 0xFFFF},
      {0, 0xFFFF},      {kMaxUniVpi + 1, 1},
  };
  for (const VcId& vc : cases) {
    const std::uint32_t label = vc_label(vc);
    EXPECT_EQ(vc_from_label(label), vc) << vc.to_string();
    EXPECT_EQ(label >> 16, vc.vpi) << vc.to_string();
    EXPECT_EQ(label & 0xFFFFu, vc.vci) << vc.to_string();
  }
}

TEST(VcId, LabelsDistinctAcrossFieldBoundaries) {
  // The classic packing bug: vpi and vci folding into the same bits so
  // {1,0} and {0,65536-ish} alias. Adjacent boundary pairs must map to
  // distinct labels.
  EXPECT_NE(vc_label({1, 0}), vc_label({0, 1}));
  EXPECT_NE(vc_label({1, 0}), vc_label({0, 0xFFFF}));
  EXPECT_NE(vc_label({kMaxUniVpi, 0xFFFF}), vc_label({kMaxUniVpi + 1, 0}));
  EXPECT_NE(vc_label({kMaxNniVpi, 0}), vc_label({kMaxNniVpi - 1, 0xFFFF}));
}

// Exhaustive-ish roundtrip sweep across the field space. gtest names
// each case after the raw bytes of its parameter, so the struct spells
// out its one padding byte as zero: left implicit, that byte held
// whatever was on the stack and the case names changed run to run.
struct HeaderCase {
  constexpr HeaderCase(std::uint8_t g, std::uint16_t vp, std::uint16_t vc,
                       std::uint8_t p, bool c)
      : gfc(g), vpi(vp), vci(vc), pti(p), clp(c) {}
  std::uint8_t gfc;
  std::uint8_t pad = 0;
  std::uint16_t vpi;
  std::uint16_t vci;
  std::uint8_t pti;
  bool clp;
};
static_assert(sizeof(HeaderCase) == 8 &&
              std::has_unique_object_representations_v<HeaderCase>);

class HeaderRoundtrip : public ::testing::TestWithParam<HeaderCase> {};

TEST_P(HeaderRoundtrip, Uni) {
  const HeaderCase& c = GetParam();
  if (c.vpi > 0xFF) GTEST_SKIP() << "VPI too wide for UNI";
  CellHeader h{c.gfc, {c.vpi, c.vci}, static_cast<Pti>(c.pti), c.clp};
  std::array<std::uint8_t, 4> raw{};
  encode_header(h, HeaderFormat::kUni, raw);
  EXPECT_EQ(decode_header(raw, HeaderFormat::kUni), h);
}

TEST_P(HeaderRoundtrip, Nni) {
  const HeaderCase& c = GetParam();
  CellHeader h{0, {c.vpi, c.vci}, static_cast<Pti>(c.pti), c.clp};
  std::array<std::uint8_t, 4> raw{};
  encode_header(h, HeaderFormat::kNni, raw);
  EXPECT_EQ(decode_header(raw, HeaderFormat::kNni), h);
}

INSTANTIATE_TEST_SUITE_P(
    FieldSweep, HeaderRoundtrip,
    ::testing::Values(
        HeaderCase{0, 0, 0, 0, false}, HeaderCase{0xF, 0xFF, 0xFFFF, 7, true},
        HeaderCase{1, 1, 1, 1, false}, HeaderCase{8, 0x80, 0x8000, 4, true},
        HeaderCase{5, 0x23, 0xABCD, 3, false},
        HeaderCase{2, 0xFFF, 0x5555, 6, true},
        HeaderCase{0, 0x3A, 0x0101, 2, true},
        HeaderCase{7, 0x7F, 0xFFFE, 5, false}));

}  // namespace
}  // namespace hni::atm
