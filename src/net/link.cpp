#include "net/link.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hni::net {

Link::Link(sim::Simulator& sim, sim::Time propagation_delay, LossModel loss,
           std::uint64_t seed)
    : sim_(sim), delay_(propagation_delay), loss_(loss), rng_(seed) {
  if (loss_.cell_loss_rate < 0.0 || loss_.cell_loss_rate >= 1.0) {
    throw std::invalid_argument("Link: cell_loss_rate must be in [0,1)");
  }
  if (loss_.mean_burst_cells > 0.0 && loss_.cell_loss_rate > 0.0) {
    // Gilbert-Elliott: bad state loses every cell. Long-run bad-state
    // occupancy must equal the target loss rate and bursts average
    // mean_burst_cells.
    p_bad_to_good_ = 1.0 / loss_.mean_burst_cells;
    p_good_to_bad_ = loss_.cell_loss_rate * p_bad_to_good_ /
                     (1.0 - loss_.cell_loss_rate);
    if (p_good_to_bad_ > 1.0) {
      throw std::invalid_argument(
          "Link: loss rate too high for the requested burst length");
    }
  }
}

bool Link::survives() {
  if (loss_.cell_loss_rate <= 0.0) return true;
  if (loss_.mean_burst_cells > 0.0) {
    if (bad_state_) {
      if (rng_.chance(p_bad_to_good_)) bad_state_ = false;
    } else {
      if (rng_.chance(p_good_to_bad_)) bad_state_ = true;
    }
    return !bad_state_;
  }
  return !rng_.chance(loss_.cell_loss_rate);
}

void Link::send(const atm::Cell& cell) {
  WireCell wire;
  wire.bytes = cell.serialize(atm::HeaderFormat::kUni);
  wire.meta = cell.meta;
  send_wire(std::move(wire));
}

void Link::set_down(bool down) {
  if (down == down_) return;
  down_ = down;
  transitions_.add();
  if (down) {
    flaps_.add();
    down_since_ = sim_.now();
  } else {
    down_time_accum_ += sim_.now() - down_since_;
  }
  if (tracer_) {
    tracer_->emit({sim_.now(),
                   down ? sim::TraceEventId::kLinkDown
                        : sim::TraceEventId::kLinkUp,
                   source_, 0, 0, 0});
  }
  for (const auto& observer : observers_) observer(down_);
}

void Link::send_wire(WireCell wire) {
  in_.add();
  if (down_) {
    down_drop_.add();
    if (tracer_) {
      tracer_->emit({sim_.now(), sim::TraceEventId::kLinkCellDroppedDown,
                     source_, 0, 0, wire.meta.seq});
    }
    return;
  }
  if (!survives()) {
    lost_.add();
    if (tracer_) {
      tracer_->emit({sim_.now(), sim::TraceEventId::kLinkCellLost, source_,
                     0, 0, wire.meta.seq});
    }
    return;
  }
  // Capture the header for tracing BEFORE any bit flips: the trace must
  // report the cell's original VPI/VCI, not the garbled one.
  atm::CellHeader pre_flip{};
  const bool tracing = tracer_ && tracer_->enabled();
  if (tracing) {
    // Header decode only when someone is listening; the emit itself is
    // a POD copy — no strings until Tracer::format().
    pre_flip = atm::decode_header(
        std::span<const std::uint8_t, 4>(wire.bytes.data(), 4),
        atm::HeaderFormat::kUni);
  }
  bool header_hit = false;
  bool payload_hit = false;
  if (loss_.header_bit_error_rate > 0.0 &&
      rng_.chance(loss_.header_bit_error_rate)) {
    const auto bit = rng_.uniform_int(0, 8 * atm::kHeaderSize - 1);
    wire.bytes[bit / 8] ^= static_cast<std::uint8_t>(0x80u >> (bit % 8));
    header_hit = true;
  }
  if (loss_.payload_bit_error_rate > 0.0 &&
      rng_.chance(loss_.payload_bit_error_rate)) {
    const auto bit = rng_.uniform_int(8 * atm::kHeaderSize,
                                      8 * atm::kCellSize - 1);
    wire.bytes[bit / 8] ^= static_cast<std::uint8_t>(0x80u >> (bit % 8));
    payload_hit = true;
  }
  if (header_hit) corrupted_header_.add();
  if (payload_hit) corrupted_payload_.add();
  if (header_hit || payload_hit) corrupted_.add();
  if (tracing) {
    tracer_->emit({sim_.now(),
                   (header_hit || payload_hit)
                       ? sim::TraceEventId::kLinkCellCorrupted
                       : sim::TraceEventId::kLinkCellSent,
                   source_, pre_flip.vc.vpi, pre_flip.vc.vci, wire.meta.seq});
  }
  if (!sink_) throw std::logic_error("Link: sink not set");
  sim::Time deliver_at = sim_.now() + delay_;
  if (loss_.cdv_jitter > 0) {
    deliver_at += static_cast<sim::Time>(
        rng_.uniform_int(0, static_cast<std::uint64_t>(loss_.cdv_jitter)));
    // Jitter must not reorder cells on the link.
    deliver_at = std::max(deliver_at, last_delivery_ + 1);
  }
  last_delivery_ = deliver_at;
  sim_.at(deliver_at, [this, wire = std::move(wire)] { sink_(wire); },
          sim::Layer::kLink);
}

}  // namespace hni::net
