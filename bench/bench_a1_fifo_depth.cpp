// A1 — Ablation: RX FIFO depth.
//
// At a fixed, mildly overloaded operating point (engine service time
// just above the cell slot for bursts), deeper FIFOs absorb longer
// bursts before shedding cells. This sweep sizes the FIFO: where does
// added depth stop buying loss reduction for bursty PDU arrivals?

#include <cstdio>

#include "bench_util.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"

using namespace hni;

int main(int argc, char** argv) {
  const hni::bench::Cli cli = hni::bench::parse_cli(argc, argv);
  bool audit_clean = true;  // every run_p2p balanced its books
  double goodput_64 = 0.0, dropped_24 = 0.0;
  std::printf(
      "A1: cell loss vs RX FIFO depth. Poisson 9180-byte PDUs at ~60%% "
      "mean load (STS-12c),\nrx engine at 28 MHz: *within* a PDU the "
      "back-to-back cells arrive every 707.8 ns but are\nserviced every "
      "786 ns — a transient deficit of ~21 cells per PDU that the FIFO "
      "must absorb,\nwhile the Poisson gaps between PDUs let it drain.\n");

  core::Table t({"fifo cells", "fifo mean", "fifo max", "cells dropped",
                 "PDUs errored", "PDUs ok", "goodput Mb/s"});
  for (std::size_t depth : {4u, 8u, 16u, 24u, 32u, 64u, 128u}) {
    core::P2pConfig cfg;
    net::SduSource::Config& traffic = cfg.flows.emplace_back().source;
    traffic.mode = net::SduSource::Mode::kPoisson;
    traffic.sdu_bytes = 9180;
    traffic.interval = sim::microseconds(230);  // ~0.6 load
    cfg.station.nic.line = atm::sts12c();
    cfg.station.nic.with_clock(50e6);
    cfg.station.nic.rx.engine.clock_hz = 28e6;  // marginal service rate
    cfg.station.nic.rx.fifo_cells = depth;
    cfg.station.host.cpu.clock_hz = 400e6;
    cfg.station.host.cpu.cpi = 1.0;
    cfg.station.host.max_inflight_tx = 64;
    cfg.warmup = sim::milliseconds(2);
    cfg.measure = sim::milliseconds(cli.smoke ? 10 : 40);
    const auto r = core::run_p2p(cfg);
    audit_clean = audit_clean && r.audit_clean;
    if (depth == 64) goodput_64 = r.goodput_bps;
    if (depth == 24) dropped_24 = static_cast<double>(r.cells_fifo_dropped);
    t.add_row({core::Table::integer(depth),
               core::Table::num(r.rx_fifo_mean, 1),
               core::Table::num(r.rx_fifo_max, 0),
               core::Table::integer(r.cells_fifo_dropped),
               core::Table::integer(r.sdus_errored),
               core::Table::integer(r.sdus_received),
               core::Table::num(r.goodput_bps / 1e6, 1)});
  }
  t.print("A1: FIFO depth sweep");
  std::printf("\nReading: the per-PDU transient deficit is ~21 cells, so "
              "depths below ~24 shed cells from\nalmost every PDU; at 24+ "
              "the burst fits and loss vanishes. Depth buys burst "
              "absorption, not\nsustained-rate headroom — under a "
              "sustained deficit (bench F3's upper rows) no finite "
              "FIFO\nhelps.\n");

  hni::bench::JsonEmitter json("bench_a1_fifo_depth");
  json.rate("a1_fifo/goodput_bytes_per_s_depth64", goodput_64 / 8.0);
  json.cost("a1_fifo/cells_dropped_depth24", dropped_24);
  json.write_or_die(cli.json);
  return audit_clean ? 0 : 1;
}
