// Host system model: workstation CPU + driver for the outboard
// interface.
//
// The host side of the architecture is deliberately thin — that is the
// point. send() costs one system call and a descriptor post; receive
// costs one (possibly coalesced) interrupt plus per-PDU driver work. The
// host CPU is a cycle-cost Engine (an R3000-class workstation processor)
// so experiments can report host CPU utilization, the headline number in
// the comparison against software SAR (bench T4).

#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "bus/host_memory.hpp"
#include "nic/nic.hpp"
#include "proc/engine.hpp"
#include "sim/ring.hpp"

namespace hni::host {

/// Host CPU cost table, in instructions. The counts are driver-path
/// budgets typical of the period's measurements (trap handling in the
/// low hundreds of instructions, syscalls similar).
struct HostCosts {
  std::uint32_t interrupt_entry = 180;  // trap, dispatch, EOI, return
  std::uint32_t tx_syscall = 150;       // user->kernel, pin/stage, post
  std::uint32_t tx_completion = 40;     // reclaim buffers, wake sender
  std::uint32_t rx_per_pdu = 120;       // unlink, protocol hand-off, wake
};

struct HostConfig {
  proc::EngineConfig cpu{25e6, 1.25};  // ~20 MIPS R3000 class
  HostCosts costs{};
  std::size_t max_inflight_tx = 32;  // driver-visible send window
  /// Receive buffer budget the driver posts to the interface, in host
  /// pages. A PDU whose landing would exceed the posted budget is
  /// dropped by the NIC (pdus_dropped_host_buffers); the budget
  /// replenishes when the host consumes a delivery.
  std::size_t rx_posted_pages = 512;
};

/// Metadata accompanying a received SDU.
struct RxInfo {
  atm::VcId vc;
  sim::Time first_cell_time = 0;
  sim::Time delivered_time = 0;   // DMA completion (NIC side)
  sim::Time handed_up_time = 0;   // after host interrupt + driver work
  std::size_t interrupt_batch = 0;
};

class Host {
 public:
  using RxHandler = std::function<void(aal::Bytes sdu, const RxInfo& info)>;
  using ReadyFn = std::function<void()>;

  Host(sim::Simulator& sim, bus::HostMemory& memory, nic::Nic& nic,
       HostConfig config = {});

  /// Sends an SDU on `vc`; returns false when the send window is full
  /// (the ready callback fires when space returns).
  bool send(atm::VcId vc, aal::AalType aal, aal::Bytes sdu);

  /// Default handler for SDUs on VCs without a dedicated handler.
  void set_rx_handler(RxHandler handler) { rx_handler_ = std::move(handler); }
  /// Per-VC handler (signalling stacks, dedicated services). Takes
  /// precedence over the default handler for that VC.
  void set_vc_handler(atm::VcId vc, RxHandler handler) {
    vc_handlers_[vc] = std::move(handler);
  }
  void set_tx_ready(ReadyFn ready) { tx_ready_ = std::move(ready); }

  double cpu_utilization() const { return cpu_.utilization(sim_.now()); }
  const proc::Engine& cpu() const { return cpu_; }

  std::uint64_t sdus_sent() const { return sent_.value(); }
  std::uint64_t sdus_received() const { return received_.value(); }
  std::uint64_t interrupts_taken() const { return interrupts_.value(); }
  std::size_t inflight_tx() const { return inflight_; }

 private:
  void on_tx_complete(const nic::TxDescriptor& d);
  void on_rx(nic::RxDelivery d);
  void drain_backlog();

  sim::Simulator& sim_;
  bus::HostMemory& memory_;
  nic::Nic& nic_;
  HostConfig config_;
  proc::Engine cpu_;
  RxHandler rx_handler_;
  std::unordered_map<atm::VcId, RxHandler> vc_handlers_;
  ReadyFn tx_ready_;
  std::size_t inflight_ = 0;
  // Work waiting on the CPU, in the order its CPU time was queued (the
  // CPU completes work in FIFO order, so each completion takes the
  // front): descriptors being posted, deliveries being handed up.
  sim::Ring<nic::TxDescriptor> posting_;
  sim::Ring<nic::RxDelivery> landed_;
  // Descriptors accepted by the host but refused by a full NIC ring.
  sim::Ring<nic::TxDescriptor> backlog_;

  sim::Counter sent_;
  sim::Counter received_;
  sim::Counter interrupts_;
};

}  // namespace hni::host
