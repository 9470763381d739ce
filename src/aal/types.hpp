// Common types for the ATM adaptation layers.
//
// The paper's central flexibility argument is that the interface's
// programmable engines must support *multiple* AALs, since the adaptation
// layer standards were still in flux in 1991. This library implements the
// three that matter to that argument:
//
//   AAL1  — constant-bit-rate circuit emulation; 1-octet SAR header
//           (CSI + 3-bit sequence count + SNP), 47-octet payload.
//   AAL3/4— the full-featured data AAL: 2-octet SAR header
//           (ST/SN/MID), 44-octet payload, 2-octet trailer (LI/CRC-10),
//           plus a CPCS layer with BTag/ETag framing.
//   AAL5  — "SEAL", the simple and efficient AAL: whole 48-octet cell
//           payloads, end-of-frame signalled in the PTI AUU bit, 8-octet
//           CPCS trailer (UU/CPI/Length/CRC-32).
//
// Segmenters and reassemblers here are *functional* state machines; the
// NIC engines (src/nic) wrap them and charge simulated processing time
// per the firmware cost model (src/proc).

#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace hni::aal {

/// Raw octet buffer for SDUs and CPCS-PDUs.
using Bytes = std::vector<std::uint8_t>;

/// Reassembly buffers, reused PDU after PDU. A buffer taken from the
/// pool comes back empty with room for the largest PDU the pool has
/// held so far, so a warm pool serves every PDU without the allocator
/// and no buffer is ever sized to the AAL's maximum up front.
class BufferPool {
 public:
  /// An empty buffer with capacity for the largest PDU seen.
  Bytes take();
  /// Returns a buffer (its contents are discarded).
  void give(Bytes buffer);

  /// Capacity every buffer is grown to when taken.
  std::size_t high_water() const { return high_water_; }
  /// Buffers given back and not yet taken again.
  std::size_t free_buffers() const { return free_.size(); }

 private:
  std::vector<Bytes> free_;
  std::size_t high_water_ = 0;
};

/// Adaptation layer selector.
enum class AalType : std::uint8_t { kAal1, kAal34, kAal5 };

std::string_view to_string(AalType type);

/// Payload octets carried per cell by each AAL.
constexpr std::size_t payload_per_cell(AalType type) {
  switch (type) {
    case AalType::kAal1:
      return 47;
    case AalType::kAal34:
      return 44;
    case AalType::kAal5:
      return 48;
  }
  return 0;
}

/// Why a reassembly attempt failed.
enum class ReassemblyError : std::uint8_t {
  kNone,
  kCrc,            // payload CRC mismatch (CRC-32 or CRC-10)
  kLength,         // trailer length disagrees with received octets
  kOversize,       // exceeds the configured maximum SDU
  kSequence,       // SAR sequence-number discontinuity (AAL1, AAL3/4)
  kTagMismatch,    // AAL3/4 BTag != ETag
  kProtocol,       // malformed PDU structure (e.g. COM before BOM)
};

std::string_view to_string(ReassemblyError error);

/// Fills `n` bytes with a deterministic, self-identifying test pattern:
/// the first up-to-8 bytes carry `seed` (little-endian), the rest an
/// xorshift stream keyed by it. verify_pattern() recovers the seed from
/// the data itself, so receivers can validate byte integrity even when
/// loss makes SDU indices unknowable. An SDU of 8 bytes or fewer is all
/// tag, so verify_pattern(data) has nothing to check and returns true.
/// Verifying compares in place, allocates nothing and stops at the
/// first mismatch.
Bytes make_pattern(std::size_t n, std::uint64_t seed);
bool verify_pattern(const Bytes& data);
/// Checks against a known seed (strict form). Below 8 bytes only the
/// seed's low data.size() bytes are checked.
bool verify_pattern(const Bytes& data, std::uint64_t seed);

}  // namespace hni::aal
