#include "aal/sar.hpp"

#include <stdexcept>

#include "aal/aal1.hpp"

namespace hni::aal {

FrameSegmenter::FrameSegmenter(AalType type, atm::VcId vc, std::uint16_t mid)
    : type_(type), vc_(vc) {
  switch (type) {
    case AalType::kAal5:
      break;
    case AalType::kAal34:
      aal34_.emplace(vc, mid);
      break;
    case AalType::kAal1:
      throw std::invalid_argument(
          "FrameSegmenter: AAL1 is a stream AAL; use Aal1Segmenter");
  }
}

std::vector<atm::Cell> FrameSegmenter::segment(const Bytes& sdu, bool clp) {
  std::vector<atm::Cell> cells;
  segment(sdu, clp, cells);
  return cells;
}

void FrameSegmenter::segment(std::span<const std::uint8_t> sdu, bool clp,
                             std::vector<atm::Cell>& cells) {
  if (type_ == AalType::kAal5) {
    aal5_segment_into(sdu, vc_, cells, 0, 0, clp);
    return;
  }
  cells = aal34_->segment(Bytes(sdu.begin(), sdu.end()), clp);
}

std::size_t FrameSegmenter::cell_count(AalType type, std::size_t sdu_len) {
  switch (type) {
    case AalType::kAal5:
      return aal5_cell_count(sdu_len);
    case AalType::kAal34:
      return aal34_cell_count(sdu_len);
    case AalType::kAal1:
      return (sdu_len + kAal1PayloadPerCell - 1) / kAal1PayloadPerCell;
  }
  return 0;
}

FrameReassembler::FrameReassembler(AalType type, Config config,
                                   BufferPool* pool)
    : type_(type),
      impl_(type == AalType::kAal5
                ? std::variant<Aal5Reassembler, Aal34Reassembler>(
                      Aal5Reassembler(Aal5Reassembler::Config(config.max_sdu),
                                      pool))
                : std::variant<Aal5Reassembler, Aal34Reassembler>(
                      Aal34Reassembler(Aal34Reassembler::Config(config.max_sdu),
                                       pool))) {
  if (type == AalType::kAal1) {
    throw std::invalid_argument(
        "FrameReassembler: AAL1 is a stream AAL; use Aal1Reassembler");
  }
}

std::optional<FrameDelivery> FrameReassembler::push(const atm::Cell& cell) {
  FrameDelivery out;
  if (type_ == AalType::kAal5) {
    auto r = std::get<Aal5Reassembler>(impl_).push(cell);
    if (!r) return std::nullopt;
    out.sdu = std::move(r->sdu);
    out.error = r->error;
    out.cells = r->cells;
    out.first_cell_time = r->first_cell_time;
  } else {
    auto r = std::get<Aal34Reassembler>(impl_).push(cell);
    if (!r) return std::nullopt;
    out.sdu = std::move(r->sdu);
    out.error = r->error;
    out.cells = r->cells;
    out.first_cell_time = r->first_cell_time;
  }
  return out;
}

void FrameReassembler::reset() {
  if (type_ == AalType::kAal5) {
    std::get<Aal5Reassembler>(impl_).reset();
  } else {
    std::get<Aal34Reassembler>(impl_).reset();
  }
}

bool FrameReassembler::mid_pdu() const {
  return type_ == AalType::kAal5
             ? std::get<Aal5Reassembler>(impl_).mid_pdu()
             : std::get<Aal34Reassembler>(impl_).active_streams() > 0;
}

std::uint64_t FrameReassembler::pdus_ok() const {
  return type_ == AalType::kAal5 ? std::get<Aal5Reassembler>(impl_).pdus_ok()
                                 : std::get<Aal34Reassembler>(impl_).pdus_ok();
}

std::uint64_t FrameReassembler::pdus_errored() const {
  return type_ == AalType::kAal5
             ? std::get<Aal5Reassembler>(impl_).pdus_errored()
             : std::get<Aal34Reassembler>(impl_).pdus_errored();
}

}  // namespace hni::aal
