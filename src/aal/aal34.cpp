#include "aal/aal34.hpp"

#include <algorithm>
#include <stdexcept>

#include "atm/crc.hpp"

namespace hni::aal {
namespace {

constexpr std::size_t kCpcsHeader = 4;   // CPI BTag BASize
constexpr std::size_t kCpcsTrailer = 4;  // AL ETag Length

// CPCS-PDU octet count for an SDU: header + payload padded to a 4-octet
// boundary + trailer.
std::size_t cpcs_size(std::size_t sdu_len) {
  const std::size_t padded = (sdu_len + 3) & ~std::size_t{3};
  return kCpcsHeader + padded + kCpcsTrailer;
}

}  // namespace

std::size_t aal34_cell_count(std::size_t sdu_len) {
  return (cpcs_size(sdu_len) + kAal34PayloadPerCell - 1) /
         kAal34PayloadPerCell;
}

std::array<std::uint8_t, atm::kPayloadSize> sar_encode(const SarPdu& pdu) {
  std::array<std::uint8_t, atm::kPayloadSize> raw{};
  raw[0] = static_cast<std::uint8_t>(
      (static_cast<std::uint8_t>(pdu.st) << 6) | ((pdu.sn & 0x0F) << 2) |
      ((pdu.mid >> 8) & 0x03));
  raw[1] = static_cast<std::uint8_t>(pdu.mid & 0xFF);
  std::copy(pdu.payload.begin(), pdu.payload.end(), raw.begin() + 2);
  raw[46] = static_cast<std::uint8_t>((pdu.li & 0x3F) << 2);  // CRC zeroed
  raw[47] = 0;
  const std::uint16_t crc =
      atm::crc10(std::span<const std::uint8_t>(raw.data(), raw.size()));
  raw[46] |= static_cast<std::uint8_t>((crc >> 8) & 0x03);
  raw[47] = static_cast<std::uint8_t>(crc & 0xFF);
  return raw;
}

SarPdu sar_decode(const std::array<std::uint8_t, atm::kPayloadSize>& raw) {
  SarPdu pdu;
  pdu.st = static_cast<SegmentType>(raw[0] >> 6);
  pdu.sn = static_cast<std::uint8_t>((raw[0] >> 2) & 0x0F);
  pdu.mid = static_cast<std::uint16_t>(((raw[0] & 0x03) << 8) | raw[1]);
  std::copy(raw.begin() + 2, raw.begin() + 2 + kAal34PayloadPerCell,
            pdu.payload.begin());
  pdu.li = static_cast<std::uint8_t>(raw[46] >> 2);
  // Verify CRC-10: recompute with the CRC bits zeroed.
  auto scratch = raw;
  const std::uint16_t wire_crc =
      static_cast<std::uint16_t>(((raw[46] & 0x03) << 8) | raw[47]);
  scratch[46] &= 0xFC;
  scratch[47] = 0;
  pdu.crc_ok = atm::crc10(std::span<const std::uint8_t>(
                   scratch.data(), scratch.size())) == wire_crc;
  return pdu;
}

Aal34Segmenter::Aal34Segmenter(atm::VcId vc, std::uint16_t mid)
    : vc_(vc), mid_(mid) {
  if (mid > kAal34MaxMid) {
    throw std::out_of_range("AAL3/4: MID exceeds 10 bits");
  }
}

std::vector<atm::Cell> Aal34Segmenter::segment(const Bytes& sdu, bool clp) {
  if (sdu.empty()) throw std::length_error("AAL3/4: empty SDU");
  if (sdu.size() > kAal34MaxSdu) {
    throw std::length_error("AAL3/4: SDU > 65535");
  }

  // Build the CPCS-PDU.
  Bytes pdu(cpcs_size(sdu.size()), 0);
  const std::uint8_t btag = next_btag_++;
  pdu[0] = 0;  // CPI: message mode, counts in octets
  pdu[1] = btag;
  pdu[2] = static_cast<std::uint8_t>(sdu.size() >> 8);  // BASize
  pdu[3] = static_cast<std::uint8_t>(sdu.size() & 0xFF);
  std::copy(sdu.begin(), sdu.end(), pdu.begin() + kCpcsHeader);
  std::uint8_t* t = pdu.data() + pdu.size() - kCpcsTrailer;
  t[0] = 0;  // AL
  t[1] = btag;
  t[2] = static_cast<std::uint8_t>(sdu.size() >> 8);  // Length
  t[3] = static_cast<std::uint8_t>(sdu.size() & 0xFF);

  // Slice into SAR-PDUs.
  const std::size_t n_cells =
      (pdu.size() + kAal34PayloadPerCell - 1) / kAal34PayloadPerCell;
  std::vector<atm::Cell> cells(n_cells);
  for (std::size_t i = 0; i < n_cells; ++i) {
    SarPdu sar;
    const std::size_t off = i * kAal34PayloadPerCell;
    const std::size_t chunk =
        std::min(kAal34PayloadPerCell, pdu.size() - off);
    if (n_cells == 1) {
      sar.st = SegmentType::kSsm;
    } else if (i == 0) {
      sar.st = SegmentType::kBom;
    } else if (i + 1 == n_cells) {
      sar.st = SegmentType::kEom;
    } else {
      sar.st = SegmentType::kCom;
    }
    sar.sn = next_sn_;
    next_sn_ = static_cast<std::uint8_t>((next_sn_ + 1) & 0x0F);
    sar.mid = mid_;
    sar.li = static_cast<std::uint8_t>(chunk);
    std::copy_n(pdu.begin() + static_cast<std::ptrdiff_t>(off), chunk,
                sar.payload.begin());

    atm::Cell& cell = cells[i];
    cell.header.vc = vc_;
    cell.header.clp = clp;
    cell.header.pti = atm::Pti::kUserData0;  // AAL3/4 does not use AUU
    cell.payload = sar_encode(sar);
  }
  return cells;
}

std::optional<Aal34Reassembler::Delivery> Aal34Reassembler::push(
    const atm::Cell& cell) {
  if (!atm::pti_is_user_data(cell.header.pti)) return std::nullopt;
  const SarPdu sar = sar_decode(cell.payload);
  if (!sar.crc_ok) {
    // A corrupted SAR-PDU: we cannot even trust the MID. Real receivers
    // drop the cell; any affected stream times out / fails at EOM.
    ++cells_bad_crc_;
    return std::nullopt;
  }

  auto it = streams_.find(sar.mid);

  switch (sar.st) {
    case SegmentType::kSsm: {
      if (it != streams_.end()) {
        // An SSM while mid-PDU aborts the open stream.
        Delivery d = fail(sar.mid, &it->second, ReassemblyError::kProtocol);
        streams_.erase(it);
        return d;
      }
      Stream s;
      s.first_cell_time = cell.meta.created;
      s.cells = 1;
      s.buffer.assign(sar.payload.begin(), sar.payload.begin() + sar.li);
      return complete(sar.mid, std::move(s));
    }
    case SegmentType::kBom: {
      if (it != streams_.end()) {
        Delivery d = fail(sar.mid, &it->second, ReassemblyError::kProtocol);
        it->second = Stream{};
        begin_stream(it->second, sar, cell);
        return d;
      }
      Stream& s = streams_[sar.mid];
      begin_stream(s, sar, cell);
      return std::nullopt;
    }
    case SegmentType::kCom:
    case SegmentType::kEom: {
      if (it == streams_.end()) {
        // COM/EOM with no BOM: lost BOM. Count and drop.
        ++orphan_cells_;
        Delivery d;
        d.mid = sar.mid;
        d.error = ReassemblyError::kProtocol;
        d.cells = 1;
        ++pdus_errored_;
        return d;
      }
      Stream& s = it->second;
      if (sar.sn != s.expected_sn) {
        Delivery d = fail(sar.mid, &s, ReassemblyError::kSequence);
        streams_.erase(it);
        return d;
      }
      s.expected_sn = static_cast<std::uint8_t>((s.expected_sn + 1) & 0x0F);
      ++s.cells;
      s.buffer.insert(s.buffer.end(), sar.payload.begin(),
                      sar.payload.begin() + sar.li);
      if (s.buffer.size() > cpcs_size(config_.max_sdu)) {
        Delivery d = fail(sar.mid, &s, ReassemblyError::kOversize);
        streams_.erase(it);
        return d;
      }
      if (sar.st == SegmentType::kCom) return std::nullopt;
      Stream finished = std::move(s);
      streams_.erase(it);
      return complete(sar.mid, std::move(finished));
    }
  }
  return std::nullopt;
}

void Aal34Reassembler::begin_stream(Stream& s, const SarPdu& sar,
                                    const atm::Cell& cell) {
  s.buffer.assign(sar.payload.begin(), sar.payload.begin() + sar.li);
  s.expected_sn = static_cast<std::uint8_t>((sar.sn + 1) & 0x0F);
  s.cells = 1;
  s.first_cell_time = cell.meta.created;
}

Aal34Reassembler::Delivery Aal34Reassembler::complete(std::uint16_t mid,
                                                      Stream s) {
  Delivery d;
  d.mid = mid;
  d.cells = s.cells;
  d.first_cell_time = s.first_cell_time;

  const Bytes& pdu = s.buffer;
  if (pdu.size() < kCpcsHeader + kCpcsTrailer) {
    d.error = ReassemblyError::kLength;
    ++pdus_errored_;
    return d;
  }
  const std::uint8_t btag = pdu[1];
  const std::size_t basize = (static_cast<std::size_t>(pdu[2]) << 8) | pdu[3];
  const std::uint8_t* t = pdu.data() + pdu.size() - kCpcsTrailer;
  const std::uint8_t etag = t[1];
  const std::size_t length = (static_cast<std::size_t>(t[2]) << 8) | t[3];
  if (btag != etag) {
    d.error = ReassemblyError::kTagMismatch;
    ++pdus_errored_;
    return d;
  }
  if (length == 0 || length > config_.max_sdu || basize < length ||
      cpcs_size(length) != pdu.size()) {
    d.error = ReassemblyError::kLength;
    ++pdus_errored_;
    return d;
  }
  if (pool_ != nullptr) d.sdu = pool_->take();
  d.sdu.assign(pdu.begin() + kCpcsHeader,
               pdu.begin() + static_cast<std::ptrdiff_t>(kCpcsHeader + length));
  d.error = ReassemblyError::kNone;
  ++pdus_ok_;
  return d;
}

Aal34Reassembler::Delivery Aal34Reassembler::fail(std::uint16_t mid,
                                                  Stream* stream,
                                                  ReassemblyError error) {
  Delivery d;
  d.mid = mid;
  d.error = error;
  if (stream != nullptr) {
    d.cells = stream->cells;
    d.first_cell_time = stream->first_cell_time;
  }
  ++pdus_errored_;
  return d;
}

void Aal34Reassembler::reset() { streams_.clear(); }

}  // namespace hni::aal
