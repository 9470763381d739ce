// AAL5 ("SEAL") segmentation and reassembly.
//
// CPCS-PDU layout (ITU-T I.363.5):
//
//   [ payload (1..65535) | pad (0..47) | UU(1) CPI(1) Length(2) CRC32(4) ]
//
// The whole CPCS-PDU is a multiple of 48 octets and is carried in whole
// cell payloads; the final cell of a PDU is marked by the AUU bit of the
// PTI field. Length is the payload length (excluding pad and trailer);
// CRC-32 covers the entire CPCS-PDU with the CRC field itself excluded.
//
// A lost final cell concatenates two PDUs; the reassembler catches this
// via length/CRC violations, exactly as real AAL5 does.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "aal/types.hpp"
#include "atm/cell.hpp"

namespace hni::aal {

/// Maximum AAL5 CPCS payload (Length is a 16-bit count).
inline constexpr std::size_t kAal5MaxSdu = 65535;
inline constexpr std::size_t kAal5TrailerSize = 8;

/// Number of cells an SDU of `sdu_len` occupies on the wire.
constexpr std::size_t aal5_cell_count(std::size_t sdu_len) {
  return (sdu_len + kAal5TrailerSize + atm::kPayloadSize - 1) /
         atm::kPayloadSize;
}

/// Builds the padded CPCS-PDU (payload + pad + trailer) for an SDU.
Bytes aal5_build_cpcs_pdu(const Bytes& sdu, std::uint8_t uu = 0,
                          std::uint8_t cpi = 0);

/// Segments an SDU into cells on virtual connection `vc`, written into
/// `cells` (resized to the PDU's cell count; its capacity is reused, so
/// a warm buffer allocates nothing). The CPCS framing is built straight
/// into the cell payloads, CRC-32 running across them. The final cell's
/// PTI carries AUU=1. Throws std::length_error for empty or oversized
/// SDUs.
void aal5_segment_into(std::span<const std::uint8_t> sdu, atm::VcId vc,
                       std::vector<atm::Cell>& cells, std::uint8_t uu = 0,
                       std::uint8_t cpi = 0, bool clp = false);

/// As aal5_segment_into(), returning a fresh cell vector.
std::vector<atm::Cell> aal5_segment(const Bytes& sdu, atm::VcId vc,
                                    std::uint8_t uu = 0, std::uint8_t cpi = 0,
                                    bool clp = false);

/// Per-VC AAL5 reassembly state machine.
class Aal5Reassembler {
 public:
  struct Config {
    std::size_t max_sdu;
    Config(std::size_t max_sdu_octets = kAal5MaxSdu) : max_sdu(max_sdu_octets) {}
  };

  struct Delivery {
    Bytes sdu;                 // valid only when error == kNone
    std::uint8_t uu = 0;
    std::uint8_t cpi = 0;
    ReassemblyError error = ReassemblyError::kNone;
    std::size_t cells = 0;     // cells consumed by this PDU attempt
    sim::Time first_cell_time = 0;  // meta.created of the first cell
  };

  /// With a `pool`, each PDU is assembled in a buffer taken from it on
  /// the PDU's first cell; a failed or discarded PDU's buffer goes back
  /// at once, and a delivered one travels in Delivery::sdu for the
  /// caller to give back. Without one, each PDU's buffer comes from the
  /// allocator, reserved on the first cell to the largest admissible
  /// PDU.
  explicit Aal5Reassembler(Config config = Config(),
                           BufferPool* pool = nullptr)
      : config_(config), pool_(pool) {}

  /// Consumes one cell; returns a Delivery when a PDU completes (with
  /// error == kNone) or fails (error set, sdu empty).
  std::optional<Delivery> push(const atm::Cell& cell);

  /// Discards any partially assembled PDU (e.g. on VC teardown).
  void reset();

  /// True if a PDU is partially assembled.
  bool mid_pdu() const { return !buffer_.empty(); }
  std::size_t buffered_octets() const { return buffer_.size(); }

  std::uint64_t pdus_ok() const { return pdus_ok_; }
  std::uint64_t pdus_errored() const { return pdus_errored_; }

 private:
  Delivery finish(ReassemblyError error, std::size_t cells);

  Config config_;
  BufferPool* pool_;
  Bytes buffer_;
  std::size_t cells_in_pdu_ = 0;
  sim::Time first_cell_time_ = 0;
  std::uint64_t pdus_ok_ = 0;
  std::uint64_t pdus_errored_ = 0;
};

}  // namespace hni::aal
