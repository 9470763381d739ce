// A3 — Ablation: the hardware/firmware split.
//
// The architecture's thesis is that per-cell, fixed-function work (CRC,
// VC lookup) belongs in hardware while protocol-variable work stays in
// firmware. This bench removes each assist in turn and measures what
// the engines must then carry — in instructions per cell and in
// delivered goodput at both line rates.

#include <cstdio>

#include "bench_util.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"

using namespace hni;

int main(int argc, char** argv) {
  // Four variants x two lines at 8 ms windows; fast enough that
  // --smoke is a documented no-op.
  const hni::bench::Cli cli = hni::bench::parse_cli(argc, argv);
  bool audit_clean = true;  // every run_p2p balanced its books
  double design_bps = 0.0, fw_crc_bps = 0.0;  // last pass = STS-12c
  std::printf("A3: hardware-assist ablation (greedy 9180-byte AAL5 PDUs, "
              "33 MHz engines)\n");

  struct Variant {
    const char* name;
    bool crc_offload;
    bool cam;
  };
  const Variant variants[] = {
      {"hw CRC + CAM (design point)", true, true},
      {"firmware CRC + CAM", false, true},
      {"hw CRC + hash lookup", true, false},
      {"firmware CRC + hash lookup", false, false},
  };

  for (const auto& [line_name, line] :
       {std::pair{"STS-3c", atm::sts3c()},
        std::pair{"STS-12c", atm::sts12c()}}) {
    core::Table t({"variant", "rx instr/cell (mid)", "goodput Mb/s",
                   "rx engine util", "cells dropped"});
    for (const auto& v : variants) {
      proc::FirmwareProfile fw;
      fw.assists.crc_offload = v.crc_offload;
      fw.assists.cam_lookup = v.cam;

      core::P2pConfig cfg;
      net::SduSource::Config& traffic = cfg.flows.emplace_back().source;
      traffic.mode = net::SduSource::Mode::kGreedy;
      traffic.sdu_bytes = 9180;
      cfg.station.nic.firmware = fw;
      cfg.station.nic.line = line;
      cfg.station.nic.with_clock(33e6);
      cfg.station.host.cpu.clock_hz = 400e6;
      cfg.station.host.cpu.cpi = 1.0;
      cfg.station.host.max_inflight_tx = 64;
      cfg.warmup = sim::milliseconds(1);
      cfg.measure = sim::milliseconds(8);
      const auto r = core::run_p2p(cfg);
      audit_clean = audit_clean && r.audit_clean;

      if (v.crc_offload && v.cam) design_bps = r.goodput_bps;
      if (!v.crc_offload && v.cam) fw_crc_bps = r.goodput_bps;
      const auto instr = proc::rx_cell_instructions(
          fw, aal::AalType::kAal5, {false, false});
      t.add_row({v.name, core::Table::integer(instr),
                 core::Table::num(r.goodput_bps / 1e6, 1),
                 core::Table::percent(r.rx_engine_util),
                 core::Table::integer(r.cells_fifo_dropped)});
    }
    t.print(std::string("A3 @ ") + line_name);
  }

  std::printf("\nReading: at STS-3c the engine has slack, so losing an "
              "assist only raises utilization;\nat STS-12c the firmware-"
              "CRC variant blows the cell budget (22 -> 70 instr/cell) "
              "and the\ninterface collapses to the engine's rate — the "
              "quantitative case for CRC in the datapath.\n");

  hni::bench::JsonEmitter json("bench_a3_crc_offload");
  json.rate("a3_assists/design_goodput_bytes_per_s_sts12c",
            design_bps / 8.0);
  json.rate("a3_assists/fw_crc_goodput_bytes_per_s_sts12c",
            fw_crc_bps / 8.0);
  json.write_or_die(cli.json);
  return audit_clean ? 0 : 1;
}
