// Baseline: software SAR on the host CPU.
//
// This is the design the paper's architecture displaces — a minimal
// adaptor (framer + shallow hardware FIFOs, no engines, no DMA) where
// the host processor itself segments, reassembles, computes CRCs, and
// moves every cell across the bus with programmed I/O:
//
//   TX: per PDU, a syscall; per cell, SAR work + software CRC on the
//       CPU, then 53 octets of PIO (one bus transaction per word).
//   RX: each cell interrupts the host (cells already waiting in the
//       shallow FIFO are drained in the same interrupt); per cell, PIO
//       read + SAR + CRC on the CPU; per PDU, protocol hand-off.
//
// The host CPU is occupied for the full duration of each PIO transfer.
// Under load the RX FIFO overflows — the cell loss the outboard
// architecture avoids. Bench T4 puts this side by side with the
// engine-based interface.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "aal/sar.hpp"
#include "atm/fifo.hpp"
#include "atm/phy.hpp"
#include "bus/turbochannel.hpp"
#include "host/host.hpp"
#include "net/link.hpp"
#include "proc/engine.hpp"

namespace hni::host {

struct SwSarConfig {
  proc::EngineConfig cpu{25e6, 1.25};
  HostCosts costs{};
  std::uint32_t sar_tx_per_cell = 30;  // header/trailer fields, loop
  std::uint32_t sar_rx_per_cell = 40;  // demux, state, append
  std::uint32_t crc_per_word = 4;      // software CRC (no offload here)
  std::size_t tx_fifo_cells = 32;
  std::size_t rx_fifo_cells = 32;      // shallow adaptor FIFO
  std::size_t max_inflight_tx = 4;
  atm::LineRate line = atm::sts3c();
};

class SwSarHost {
 public:
  using RxHandler = std::function<void(aal::Bytes sdu, const RxInfo& info)>;
  using ReadyFn = std::function<void()>;

  SwSarHost(sim::Simulator& sim, bus::Bus& bus, SwSarConfig config);

  bool send(atm::VcId vc, aal::AalType aal, aal::Bytes sdu);
  void set_rx_handler(RxHandler handler) { rx_handler_ = std::move(handler); }
  void set_tx_ready(ReadyFn ready) { tx_ready_ = std::move(ready); }

  void open_vc(atm::VcId vc, aal::AalType aal);

  /// Connects the adaptor's framer to an outgoing link and starts it.
  void attach_tx(net::Link& link);
  /// PHY entry point (connect the incoming link's sink here).
  void receive_wire(const net::WireCell& wire);

  double cpu_utilization() const { return cpu_.utilization(sim_.now()); }
  const proc::Engine& cpu() const { return cpu_; }
  std::uint64_t sdus_sent() const { return sent_.value(); }
  std::uint64_t sdus_received() const { return received_.value(); }
  std::uint64_t interrupts_taken() const { return interrupts_.value(); }
  std::uint64_t rx_fifo_drops() const { return rx_fifo_.drops(); }
  std::uint64_t pdus_errored() const { return pdus_err_.value(); }

 private:
  struct TxJob {
    std::vector<atm::Cell> cells;
    std::size_t next = 0;
  };

  void pump_tx();
  void tx_cell_done();
  void pump_rx();

  static std::uint32_t crc_instructions(std::uint32_t per_word) {
    return per_word * (48 / 4);
  }

  sim::Simulator& sim_;
  bus::Bus& bus_;
  SwSarConfig config_;
  proc::Engine cpu_;
  atm::CellFifo<atm::Cell> tx_fifo_;
  atm::CellFifo<atm::Cell> rx_fifo_;
  atm::TxFramer framer_;
  atm::HecReceiver hec_;
  RxHandler rx_handler_;
  ReadyFn tx_ready_;

  std::deque<TxJob> tx_jobs_;
  bool tx_active_ = false;
  bool rx_active_ = false;      // a cell is being serviced right now
  bool in_interrupt_ = false;   // host is inside the RX interrupt loop
  std::unordered_map<atm::VcId, aal::FrameReassembler> reassemblers_;
  std::uint64_t next_seq_ = 0;

  sim::Counter sent_;
  sim::Counter received_;
  sim::Counter interrupts_;
  sim::Counter pdus_err_;
};

}  // namespace hni::host
