// AAL3/4 segmentation and reassembly (ITU-T I.363.3/4).
//
// SAR-PDU — exactly one cell payload (48 octets):
//
//   [ ST(2b) SN(4b) MID(10b) | payload(44) | LI(6b) CRC10(10b) ]
//
//   ST: segment type — BOM(10) begins a CPCS-PDU, COM(00) continues,
//       EOM(01) ends, SSM(11) carries a whole PDU in one cell.
//   SN: per-(VC,MID) sequence number modulo 16; gaps reveal lost cells
//       even without end-of-frame loss.
//   MID: multiplexing identifier — up to 1024 interleaved CPCS-PDUs on
//       one VC (the capability AAL5 gave up).
//   LI: number of valid payload octets in this cell (44 except possibly
//       in EOM/SSM).
//   CRC10: covers the whole SAR-PDU with the CRC field zeroed.
//
// CPCS-PDU:
//
//   [ CPI(1) BTag(1) BASize(2) | payload | pad(0..3) | AL(1) ETag(1) Length(2) ]
//
//   BTag must equal ETag (catches a lost EOM splicing two PDUs);
//   Length is the payload octet count; BASize >= Length (equal in
//   message mode, which is what this library uses).

#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "aal/types.hpp"
#include "atm/cell.hpp"

namespace hni::aal {

inline constexpr std::size_t kAal34PayloadPerCell = 44;
inline constexpr std::size_t kAal34MaxSdu = 65535;
inline constexpr std::uint16_t kAal34MaxMid = 0x3FF;

/// Segment type codepoints.
enum class SegmentType : std::uint8_t {
  kCom = 0b00,
  kEom = 0b01,
  kBom = 0b10,
  kSsm = 0b11,
};

/// Decoded SAR-PDU fields.
struct SarPdu {
  SegmentType st = SegmentType::kCom;
  std::uint8_t sn = 0;       // 4-bit sequence number
  std::uint16_t mid = 0;     // 10-bit multiplexing id
  std::uint8_t li = 0;       // 6-bit length indicator
  std::array<std::uint8_t, kAal34PayloadPerCell> payload{};
  bool crc_ok = false;       // filled by decode
};

/// Encodes a SAR-PDU into a 48-octet cell payload (computes CRC-10).
std::array<std::uint8_t, atm::kPayloadSize> sar_encode(const SarPdu& pdu);

/// Decodes a 48-octet cell payload; `crc_ok` reflects the CRC-10 check.
SarPdu sar_decode(const std::array<std::uint8_t, atm::kPayloadSize>& raw);

/// Number of cells an SDU of `sdu_len` occupies (CPCS header+trailer and
/// 4-octet alignment included).
std::size_t aal34_cell_count(std::size_t sdu_len);

/// Per-(VC,MID) segmenter. `btag` auto-increments per PDU.
class Aal34Segmenter {
 public:
  explicit Aal34Segmenter(atm::VcId vc, std::uint16_t mid = 0);

  /// Segments an SDU into cells. Throws std::length_error when empty or
  /// beyond kAal34MaxSdu.
  std::vector<atm::Cell> segment(const Bytes& sdu, bool clp = false);

  atm::VcId vc() const { return vc_; }
  std::uint16_t mid() const { return mid_; }

 private:
  atm::VcId vc_;
  std::uint16_t mid_;
  std::uint8_t next_sn_ = 0;
  std::uint8_t next_btag_ = 0;
};

/// Per-VC reassembler demultiplexing all MIDs on the connection.
class Aal34Reassembler {
 public:
  struct Config {
    std::size_t max_sdu;
    Config(std::size_t max_sdu_octets = kAal34MaxSdu) : max_sdu(max_sdu_octets) {}
  };

  struct Delivery {
    Bytes sdu;
    std::uint16_t mid = 0;
    ReassemblyError error = ReassemblyError::kNone;
    std::size_t cells = 0;
    sim::Time first_cell_time = 0;
  };

  /// With a `pool`, a delivered SDU is copied out into a buffer taken
  /// from it, for the caller to give back.
  explicit Aal34Reassembler(Config config = Config(),
                            BufferPool* pool = nullptr)
      : config_(config), pool_(pool) {}

  /// Consumes one cell; may complete (or fail) one CPCS-PDU.
  std::optional<Delivery> push(const atm::Cell& cell);

  void reset();

  std::uint64_t pdus_ok() const { return pdus_ok_; }
  std::uint64_t pdus_errored() const { return pdus_errored_; }
  /// Cells dropped for a bad SAR CRC-10 (MID untrustworthy).
  std::uint64_t cells_bad_crc() const { return cells_bad_crc_; }
  /// COM/EOM cells arriving with no open stream (lost BOM).
  std::uint64_t orphan_cells() const { return orphan_cells_; }
  /// Number of MIDs with a partially assembled PDU.
  std::size_t active_streams() const { return streams_.size(); }

 private:
  struct Stream {
    Bytes buffer;
    std::uint8_t expected_sn = 0;
    std::size_t cells = 0;
    sim::Time first_cell_time = 0;
  };

  void begin_stream(Stream& s, const SarPdu& sar, const atm::Cell& cell);
  Delivery complete(std::uint16_t mid, Stream s);
  Delivery fail(std::uint16_t mid, Stream* stream, ReassemblyError error);

  Config config_;
  BufferPool* pool_;
  std::unordered_map<std::uint16_t, Stream> streams_;
  std::uint64_t pdus_ok_ = 0;
  std::uint64_t pdus_errored_ = 0;
  std::uint64_t cells_bad_crc_ = 0;
  std::uint64_t orphan_cells_ = 0;
};

}  // namespace hni::aal
