// T4 — The architecture against its alternatives.
//
// Three design points, identical workload (greedy 9180-byte AAL5 PDUs
// at STS-3c, identical host CPU class):
//
//   host-sw-SAR   — minimal adaptor; host CPU segments/reassembles,
//                   computes CRCs, moves cells by PIO, takes per-cell
//                   interrupts. The design the paper displaces.
//   outboard      — the paper's architecture: programmable engines do
//                   SAR, hardware does CRC/framing, DMA bursts, per-PDU
//                   interrupts.
//   hardwired     — fully fixed-function SAR (per-cell engine work ~0):
//                   fastest, but no protocol flexibility; included as
//                   the other end of the flexibility/performance axis.
//
// Reported: goodput, host CPU utilization, interrupts per PDU, and
// cell loss — who wins and by how much.

#include <cstdio>
#include <functional>

#include "bench_util.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "host/sw_sar.hpp"

using namespace hni;

struct Row {
  double goodput_mbps;
  double host_cpu;
  double interrupts_per_pdu;
  std::uint64_t cells_dropped;
  bool audit_clean = true;  // run_p2p's post-drain audit
};

Row run_outboard(bool hardwired) {
  core::P2pConfig cfg;
  net::SduSource::Config& traffic = cfg.flows.emplace_back().source;
  traffic.mode = net::SduSource::Mode::kGreedy;
  traffic.sdu_bytes = 9180;
  cfg.warmup = sim::milliseconds(2);
  cfg.measure = sim::milliseconds(20);
  if (hardwired) {
    // Fixed-function datapath: per-cell work disappears into gates; only
    // the per-PDU descriptor/delivery work remains programmable.
    cfg.station.nic.firmware.tx.cell_overhead = 1;
    cfg.station.nic.firmware.rx.cell_arrival = 1;
    cfg.station.nic.firmware.rx.vc_lookup_cam = 1;
    cfg.station.nic.firmware.rx.buffer_append = 1;
    cfg.station.nic.firmware.rx.first_cell_extra = 4;
    cfg.station.nic.firmware.rx.last_cell_extra = 6;
  }
  const auto r = core::run_p2p(cfg);
  Row row;
  row.goodput_mbps = r.goodput_bps / 1e6;
  // The busier of the two hosts (they share the CPU class).
  row.host_cpu = std::max(r.tx_host_cpu_util, r.rx_host_cpu_util);
  row.interrupts_per_pdu = r.interrupts_per_pdu;
  row.cells_dropped = r.cells_fifo_dropped;
  row.audit_clean = r.audit_clean;
  return row;
}

Row run_sw_sar() {
  sim::Simulator sim;
  bus::Bus bus_a(sim, bus::BusConfig{});
  bus::Bus bus_b(sim, bus::BusConfig{});
  host::SwSarHost a(sim, bus_a, host::SwSarConfig{});
  host::SwSarHost b(sim, bus_b, host::SwSarConfig{});
  net::Link ab(sim, sim::microseconds(5));
  net::Link ba(sim, sim::microseconds(5));
  ab.set_sink([&](const net::WireCell& w) { b.receive_wire(w); });
  ba.set_sink([&](const net::WireCell& w) { a.receive_wire(w); });
  a.attach_tx(ab);
  b.attach_tx(ba);
  const atm::VcId vc{0, 1};
  a.open_vc(vc, aal::AalType::kAal5);
  b.open_vc(vc, aal::AalType::kAal5);

  std::uint64_t received_bytes = 0;
  bool measuring = false;
  b.set_rx_handler([&](aal::Bytes sdu, const host::RxInfo&) {
    if (measuring) received_bytes += sdu.size();
  });
  std::uint64_t seq = 0;
  std::function<void()> offer = [&] {
    while (a.send(vc, aal::AalType::kAal5, aal::make_pattern(9180, seq))) {
      ++seq;
    }
  };
  a.set_tx_ready(offer);
  offer();

  const sim::Time warmup = sim::milliseconds(2);
  const sim::Time window = sim::milliseconds(20);
  std::uint64_t pdus0 = 0, ints0 = 0;
  sim.after(warmup, [&] {
    measuring = true;
    pdus0 = b.sdus_received();
    ints0 = b.interrupts_taken();
  });
  sim.run_until(warmup + window);

  Row row;
  row.goodput_mbps =
      static_cast<double>(received_bytes) * 8.0 / sim::to_seconds(window) /
      1e6;
  row.host_cpu = std::max(a.cpu_utilization(), b.cpu_utilization());
  const auto pdus = b.sdus_received() - pdus0;
  row.interrupts_per_pdu =
      pdus == 0 ? 0.0
                : static_cast<double>(b.interrupts_taken() - ints0) /
                      static_cast<double>(pdus);
  row.cells_dropped = b.rx_fifo_drops();
  return row;
}

int main(int argc, char** argv) {
  // --smoke accepted for fleet uniformity; three short fixed runs.
  const hni::bench::Cli cli = hni::bench::parse_cli(argc, argv);
  std::printf("T4: architecture comparison — greedy 9180-byte AAL5 PDUs "
              "at STS-3c,\n    identical R3000-class host CPU (~20 MIPS)\n");

  const Row sw = run_sw_sar();
  const Row outboard = run_outboard(false);
  const Row hardwired = run_outboard(true);

  core::Table t({"design", "goodput Mb/s", "host CPU util",
                 "interrupts/PDU", "rx cells dropped", "flexibility"});
  auto add = [&](const char* name, const Row& r, const char* flex) {
    t.add_row({name, core::Table::num(r.goodput_mbps, 1),
               core::Table::percent(r.host_cpu),
               core::Table::num(r.interrupts_per_pdu, 1),
               core::Table::integer(r.cells_dropped), flex});
  };
  add("host software SAR + PIO", sw, "full (all in host sw)");
  add("outboard engines (this paper)", outboard,
      "high (firmware per AAL)");
  add("hardwired SAR", hardwired, "none (one AAL in gates)");
  t.print("T4: who wins and by how much");

  std::printf(
      "\nReading: software SAR saturates the host CPU at a small fraction "
      "of line rate and takes\ntens of interrupts per PDU; the "
      "outboard architecture runs at the line's AAL5 ceiling\nwith a "
      "near-idle host and one interrupt per PDU — at equal goodput to the "
      "hardwired design,\nwhile keeping the AAL programmable.\n");
  return outboard.audit_clean && hardwired.audit_clean ? 0 : 1;
}
