// AAL-agnostic segmentation/reassembly facade for framed AALs.
//
// The NIC protocol engines are programmable precisely so the same
// hardware can run different AALs; this facade is the software analogue:
// nic/ and host/ code handles frames through one interface and the AAL
// variant is a per-VC configuration knob (AAL5 or AAL3/4 — AAL1 is a
// stream AAL and keeps its own interface in aal1.hpp).

#pragma once

#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "aal/aal34.hpp"
#include "aal/aal5.hpp"
#include "aal/types.hpp"
#include "atm/cell.hpp"

namespace hni::aal {

/// Result of a completed (or failed) reassembly, AAL-independent.
struct FrameDelivery {
  Bytes sdu;
  ReassemblyError error = ReassemblyError::kNone;
  std::size_t cells = 0;
  sim::Time first_cell_time = 0;

  bool ok() const { return error == ReassemblyError::kNone; }
};

/// Segments SDUs on one VC with the configured framed AAL.
class FrameSegmenter {
 public:
  FrameSegmenter(AalType type, atm::VcId vc, std::uint16_t mid = 0);

  std::vector<atm::Cell> segment(const Bytes& sdu, bool clp = false);
  /// Segments into `cells`, reusing its capacity (AAL5 allocates
  /// nothing into a warm vector).
  void segment(std::span<const std::uint8_t> sdu, bool clp,
               std::vector<atm::Cell>& cells);

  AalType type() const { return type_; }
  atm::VcId vc() const { return vc_; }

  /// Cells an SDU of `sdu_len` octets occupies under this AAL.
  static std::size_t cell_count(AalType type, std::size_t sdu_len);

 private:
  AalType type_;
  atm::VcId vc_;
  std::optional<Aal34Segmenter> aal34_;  // engaged iff type == kAal34
};

/// Reassembles one VC's cell stream with the configured framed AAL.
class FrameReassembler {
 public:
  struct Config {
    std::size_t max_sdu;
    Config(std::size_t max_sdu_octets = kAal5MaxSdu) : max_sdu(max_sdu_octets) {}
  };

  /// `pool` holds the buffers delivered SDUs travel in (see
  /// Aal5Reassembler and Aal34Reassembler); the caller gives each one
  /// back.
  explicit FrameReassembler(AalType type, Config config = Config(),
                            BufferPool* pool = nullptr);

  std::optional<FrameDelivery> push(const atm::Cell& cell);
  void reset();

  AalType type() const { return type_; }
  /// True while a PDU is partially assembled (AAL5: the single stream;
  /// AAL3/4: any open MID stream).
  bool mid_pdu() const;
  std::uint64_t pdus_ok() const;
  std::uint64_t pdus_errored() const;

 private:
  AalType type_;
  std::variant<Aal5Reassembler, Aal34Reassembler> impl_;
};

}  // namespace hni::aal
