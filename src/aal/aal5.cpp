#include "aal/aal5.hpp"

#include <algorithm>
#include <stdexcept>

#include "atm/crc.hpp"

namespace hni::aal {

void aal5_segment_into(std::span<const std::uint8_t> sdu, atm::VcId vc,
                       std::vector<atm::Cell>& cells, std::uint8_t uu,
                       std::uint8_t cpi, bool clp) {
  if (sdu.empty()) throw std::length_error("AAL5: empty SDU");
  if (sdu.size() > kAal5MaxSdu) throw std::length_error("AAL5: SDU > 65535");

  const std::size_t n_cells = aal5_cell_count(sdu.size());
  cells.resize(n_cells);
  atm::Crc32 crc;
  std::size_t off = 0;
  for (std::size_t i = 0; i < n_cells; ++i) {
    atm::Cell& cell = cells[i];
    cell.header = atm::CellHeader{};
    cell.header.vc = vc;
    cell.header.clp = clp;
    cell.header.pti =
        (i + 1 == n_cells) ? atm::Pti::kUserData1 : atm::Pti::kUserData0;
    cell.meta = atm::Cell::Meta{};
    // SDU octets, then zero pad up to the trailer (or the cell's end).
    std::uint8_t* p = cell.payload.data();
    const std::size_t take =
        std::min(sdu.size() - off, std::size_t{atm::kPayloadSize});
    std::copy_n(sdu.data() + off, take, p);
    std::fill(p + take, p + atm::kPayloadSize, std::uint8_t{0});
    off += take;
    if (i + 1 < n_cells) {
      crc.update(std::span<const std::uint8_t>(p, atm::kPayloadSize));
      continue;
    }
    // Trailer occupies the final 8 octets; the CRC covers all but its
    // own 4.
    std::uint8_t* t = p + atm::kPayloadSize - kAal5TrailerSize;
    t[0] = uu;
    t[1] = cpi;
    t[2] = static_cast<std::uint8_t>(sdu.size() >> 8);
    t[3] = static_cast<std::uint8_t>(sdu.size() & 0xFF);
    crc.update(std::span<const std::uint8_t>(p, atm::kPayloadSize - 4));
    const std::uint32_t v = crc.value();
    t[4] = static_cast<std::uint8_t>(v >> 24);
    t[5] = static_cast<std::uint8_t>(v >> 16);
    t[6] = static_cast<std::uint8_t>(v >> 8);
    t[7] = static_cast<std::uint8_t>(v & 0xFF);
  }
}

std::vector<atm::Cell> aal5_segment(const Bytes& sdu, atm::VcId vc,
                                    std::uint8_t uu, std::uint8_t cpi,
                                    bool clp) {
  std::vector<atm::Cell> cells;
  aal5_segment_into(sdu, vc, cells, uu, cpi, clp);
  return cells;
}

Bytes aal5_build_cpcs_pdu(const Bytes& sdu, std::uint8_t uu,
                          std::uint8_t cpi) {
  Bytes pdu;
  for (const atm::Cell& cell : aal5_segment(sdu, atm::VcId{}, uu, cpi)) {
    pdu.insert(pdu.end(), cell.payload.begin(), cell.payload.end());
  }
  return pdu;
}

std::optional<Aal5Reassembler::Delivery> Aal5Reassembler::push(
    const atm::Cell& cell) {
  if (!atm::pti_is_user_data(cell.header.pti)) return std::nullopt;  // OAM
  if (buffer_.empty()) {
    first_cell_time_ = cell.meta.created;
    // A pooled buffer already has room for the largest PDU seen;
    // without a pool, reserve the full admissible PDU. Either way the
    // mid-PDU cell path stays off the allocator.
    if (pool_ != nullptr) {
      buffer_ = pool_->take();
    } else {
      buffer_.reserve(aal5_cell_count(config_.max_sdu) * atm::kPayloadSize);
    }
  }
  buffer_.insert(buffer_.end(), cell.payload.begin(), cell.payload.end());
  ++cells_in_pdu_;

  if (!atm::pti_auu(cell.header.pti)) {
    // Mid-PDU cell. Enforce the size bound early so a lost final cell
    // cannot buffer unboundedly.
    const std::size_t limit =
        aal5_cell_count(config_.max_sdu) * atm::kPayloadSize;
    if (buffer_.size() > limit) {
      return finish(ReassemblyError::kOversize, cells_in_pdu_);
    }
    return std::nullopt;
  }

  // Final cell: validate trailer.
  const std::size_t total = buffer_.size();
  const std::uint8_t* t = buffer_.data() + total - kAal5TrailerSize;
  const std::size_t length = static_cast<std::size_t>(t[2]) << 8 | t[3];
  const std::uint32_t wire_crc = (static_cast<std::uint32_t>(t[4]) << 24) |
                                 (static_cast<std::uint32_t>(t[5]) << 16) |
                                 (static_cast<std::uint32_t>(t[6]) << 8) |
                                 static_cast<std::uint32_t>(t[7]);
  const std::uint32_t crc =
      atm::crc32(std::span<const std::uint8_t>(buffer_.data(), total - 4));
  if (crc != wire_crc) return finish(ReassemblyError::kCrc, cells_in_pdu_);
  if (length == 0 || length > config_.max_sdu ||
      length + kAal5TrailerSize > total ||
      total - (length + kAal5TrailerSize) >= atm::kPayloadSize) {
    return finish(ReassemblyError::kLength, cells_in_pdu_);
  }

  Delivery d;
  d.uu = t[0];
  d.cpi = t[1];
  d.error = ReassemblyError::kNone;
  d.cells = cells_in_pdu_;
  d.first_cell_time = first_cell_time_;
  buffer_.resize(length);
  d.sdu = std::move(buffer_);
  buffer_.clear();
  cells_in_pdu_ = 0;
  ++pdus_ok_;
  return d;
}

Aal5Reassembler::Delivery Aal5Reassembler::finish(ReassemblyError error,
                                                  std::size_t cells) {
  Delivery d;
  d.error = error;
  d.cells = cells;
  d.first_cell_time = first_cell_time_;
  reset();
  ++pdus_errored_;
  return d;
}

void Aal5Reassembler::reset() {
  // A pooled buffer goes back at once.
  if (pool_ != nullptr && !buffer_.empty()) {
    pool_->give(std::move(buffer_));
  }
  buffer_.clear();
  cells_in_pdu_ = 0;
}

}  // namespace hni::aal
