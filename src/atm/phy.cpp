#include "atm/phy.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

namespace hni::atm {

LineRate sts3c() { return LineRate{155.52e6, 149.760e6}; }

LineRate sts12c() { return LineRate{622.08e6, 599.040e6}; }

LineRate raw_rate(double bps) { return LineRate{bps, bps}; }

TxFramer::TxFramer(sim::Simulator& sim, LineRate rate)
    : sim_(sim), rate_(std::move(rate)) {
  if (rate_.payload_bps <= 0.0) {
    throw std::invalid_argument("TxFramer: payload rate must be positive");
  }
  slot_ = rate_.cell_slot();
}

void TxFramer::set_clock_ppm(double ppm) {
  const double nominal = static_cast<double>(rate_.cell_slot());
  slot_ = static_cast<sim::Time>(nominal * (1.0 + ppm * 1e-6) + 0.5);
}

void TxFramer::bind(CellFifo<Cell>& fifo) {
  fifo_ = &fifo;
  fifo.set_on_push([this] { wake(); });
}

void TxFramer::start() {
  if (running_) return;
  if (fifo_ == nullptr || !sink_) {
    throw std::logic_error("TxFramer: bind a FIFO and set a sink first");
  }
  running_ = true;
  start_ = sim_.now();
  next_boundary_ = 0;
  if (!fifo_->empty()) arm(0);
}

void TxFramer::stop() {
  if (!running_) return;
  slots_before_ = slots_elapsed();
  running_ = false;
  if (armed_) {
    sim_.cancel(wake_);
    armed_ = false;
  }
}

void TxFramer::wake() {
  if (!running_ || armed_) return;
  // The first boundary at or after now that has not been served.
  const sim::Time since = sim_.now() - start_;
  const auto at_or_after =
      static_cast<std::uint64_t>((since + slot_ - 1) / slot_);
  arm(std::max(at_or_after, next_boundary_));
}

void TxFramer::arm(std::uint64_t boundary) {
  armed_ = true;
  wake_ = sim_.at(start_ + static_cast<sim::Time>(boundary) * slot_,
                  [this, boundary] { on_slot(boundary); },
                  sim::Layer::kFramer);
}

void TxFramer::on_slot(std::uint64_t boundary) {
  next_boundary_ = boundary + 1;
  // armed_ stays set across the pop: a producer the pop releases (a
  // FIFO space waiter) pushes without arming a second wake.
  if (std::optional<Cell> cell = fifo_->pop()) {
    cells_sent_.add();
    // The cell is fully serialized one slot later.
    sim_.after(slot_, [this, c = *std::move(cell)] { sink_(c); },
               sim::Layer::kFramer);
  }
  armed_ = false;
  if (!fifo_->empty()) arm(next_boundary_);
}

std::uint64_t TxFramer::slots_elapsed() const {
  if (!running_) return slots_before_;
  return slots_before_ +
         static_cast<std::uint64_t>((sim_.now() - start_) / slot_) + 1;
}

std::uint64_t TxFramer::idle_slots() const {
  return slots_elapsed() - cells_sent_.value();
}

double TxFramer::utilization() const {
  const std::uint64_t total = slots_elapsed();
  return total == 0 ? 0.0
                    : static_cast<double>(cells_sent_.value()) /
                          static_cast<double>(total);
}

}  // namespace hni::atm
