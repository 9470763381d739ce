#include "host/sw_sar.hpp"

#include <utility>

namespace hni::host {

SwSarHost::SwSarHost(sim::Simulator& sim, bus::Bus& bus, SwSarConfig config)
    : sim_(sim),
      bus_(bus),
      config_(config),
      cpu_(sim, config.cpu, sim::Layer::kHost),
      tx_fifo_(sim, config.tx_fifo_cells),
      rx_fifo_(sim, config.rx_fifo_cells),
      framer_(sim, config.line) {
  framer_.bind(tx_fifo_);
  rx_fifo_.set_on_push([this] { pump_rx(); });
}

void SwSarHost::open_vc(atm::VcId vc, aal::AalType aal) {
  reassemblers_.emplace(vc, aal::FrameReassembler(aal));
}

void SwSarHost::attach_tx(net::Link& link) {
  framer_.set_sink([&link](const atm::Cell& cell) { link.send(cell); });
  framer_.start();
}

bool SwSarHost::send(atm::VcId vc, aal::AalType aal, aal::Bytes sdu) {
  if (tx_jobs_.size() >= config_.max_inflight_tx) return false;
  sent_.add();
  // Segmentation is functional up front; every CPU and bus cost is
  // charged in the per-cell pump below.
  aal::FrameSegmenter seg(aal, vc);
  TxJob job;
  job.cells = seg.segment(sdu);
  tx_jobs_.push_back(std::move(job));
  cpu_.execute(config_.costs.tx_syscall, [this] { pump_tx(); });
  return true;
}

void SwSarHost::pump_tx() {
  if (tx_active_ || tx_jobs_.empty()) return;
  if (tx_fifo_.full()) {
    tx_fifo_.wait_space([this] { pump_tx(); });
    return;
  }
  tx_active_ = true;
  const std::uint32_t instr =
      config_.sar_tx_per_cell + crc_instructions(config_.crc_per_word);
  cpu_.execute(instr, [this] {
    // CPU stays occupied while it PIOs the cell to the adaptor.
    const sim::Time pio =
        bus_.pio_time(atm::kCellSize, bus::Direction::kRead);
    bus_.pio_transfer(atm::kCellSize, bus::Direction::kRead, [] {});
    cpu_.occupy(pio, [this] { tx_cell_done(); });
  });
}

void SwSarHost::tx_cell_done() {
  TxJob& job = tx_jobs_.front();
  atm::Cell cell = std::move(job.cells[job.next]);
  cell.meta.created = sim_.now();
  cell.meta.seq = next_seq_++;
  tx_fifo_.push(std::move(cell));
  ++job.next;
  if (job.next == job.cells.size()) {
    tx_jobs_.pop_front();
    if (tx_ready_) tx_ready_();
  }
  tx_active_ = false;
  pump_tx();
}

void SwSarHost::receive_wire(const net::WireCell& wire) {
  auto bytes = wire.bytes;
  auto header = std::span<std::uint8_t, 4>(bytes.data(), 4);
  if (hec_.push(header, bytes[4]) == atm::HecVerdict::kDiscard) return;
  atm::Cell cell = atm::Cell::deserialize(
      std::span<const std::uint8_t, atm::kCellSize>(bytes.data(),
                                                    atm::kCellSize),
      atm::HeaderFormat::kUni);
  cell.meta = wire.meta;
  rx_fifo_.push(std::move(cell));  // overflow counted by the FIFO
}

void SwSarHost::pump_rx() {
  if (rx_active_) return;
  std::optional<atm::Cell> cell = rx_fifo_.pop();
  if (!cell) return;
  rx_active_ = true;

  // A fresh interrupt only when the host was out of the service loop.
  std::uint32_t instr =
      config_.sar_rx_per_cell + crc_instructions(config_.crc_per_word);
  if (!in_interrupt_) {
    in_interrupt_ = true;
    interrupts_.add();
    instr += config_.costs.interrupt_entry;
  }

  atm::Cell c = std::move(*cell);
  cpu_.execute(instr, [this, c = std::move(c)]() mutable {
    // PIO the cell out of the adaptor while the CPU waits.
    const sim::Time pio =
        bus_.pio_time(atm::kCellSize, bus::Direction::kWrite);
    bus_.pio_transfer(atm::kCellSize, bus::Direction::kWrite, [] {});
    cpu_.occupy(pio, [this, c = std::move(c)]() mutable {
      auto it = reassemblers_.find(c.header.vc);
      if (it != reassemblers_.end()) {
        if (auto done = it->second.push(c)) {
          if (done->ok()) {
            received_.add();
            const auto finish = [this, d = std::move(*done),
                                 vc = c.header.vc]() mutable {
              if (rx_handler_) {
                RxInfo info;
                info.vc = vc;
                info.first_cell_time = d.first_cell_time;
                info.delivered_time = sim_.now();
                info.handed_up_time = sim_.now();
                rx_handler_(std::move(d.sdu), info);
              }
            };
            rx_active_ = false;
            cpu_.execute(config_.costs.rx_per_pdu, finish);
            // Continue draining; leave interrupt context when empty.
            if (rx_fifo_.empty()) in_interrupt_ = false;
            pump_rx();
            return;
          }
          pdus_err_.add();
        }
      }
      rx_active_ = false;
      if (rx_fifo_.empty()) in_interrupt_ = false;
      pump_rx();
    });
  });
}

}  // namespace hni::host
