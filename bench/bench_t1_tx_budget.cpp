// T1 — Transmit (segmentation) engine cycle budget.
//
// Regenerates the paper-style table: instructions and time per firmware
// operation on the TX side, against the cell slot at STS-3c and
// STS-12c. The punchline the architecture rests on: per-cell transmit
// work on a 25 MIPS engine fits comfortably inside even the STS-12c
// slot; per-PDU work amortizes over the PDU's cells.

#include <cstdio>

#include "aal/aal5.hpp"
#include "bench_util.hpp"
#include "atm/phy.hpp"
#include "core/report.hpp"
#include "proc/engine.hpp"
#include "proc/firmware.hpp"

using namespace hni;

int main(int argc, char** argv) {
  // --smoke accepted for fleet uniformity; the budget tables are pure
  // arithmetic and already CI-sized.
  const hni::bench::Cli cli = hni::bench::parse_cli(argc, argv);
  sim::Simulator sim;
  proc::Engine engine(sim, {25e6, 1.0});
  const proc::FirmwareProfile fw{};
  const sim::Time slot3 = atm::sts3c().cell_slot();
  const sim::Time slot12 = atm::sts12c().cell_slot();

  std::printf("T1: TX segmentation engine budget (25 MIPS engine)\n");
  std::printf("    cell slot: %s @ STS-3c, %s @ STS-12c\n",
              sim::format_time(slot3).c_str(),
              sim::format_time(slot12).c_str());

  core::Table ops({"operation", "scope", "instr", "time",
                   "fits STS-3c slot", "fits STS-12c slot"});
  auto row = [&](const char* name, const char* scope, std::uint32_t instr) {
    const sim::Time t = engine.cost(instr);
    ops.add_row({name, scope, core::Table::integer(instr),
                 sim::format_time(t), t <= slot3 ? "yes" : "NO",
                 t <= slot12 ? "yes" : "NO"});
  };
  row("fetch descriptor", "per PDU", fw.tx.fetch_descriptor);
  row("program DMA", "per PDU", fw.tx.program_dma);
  row("build CPCS trailer", "per PDU", fw.tx.build_trailer);
  row("complete PDU", "per PDU", fw.tx.complete_pdu);
  row("cell build (AAL5)", "per cell",
      proc::tx_cell_instructions(fw, aal::AalType::kAal5, {false, false}));
  row("cell build (AAL3/4)", "per cell",
      proc::tx_cell_instructions(fw, aal::AalType::kAal34, {false, false}));
  {
    proc::FirmwareProfile sw = fw;
    sw.assists.crc_offload = false;
    row("cell build (AAL5, firmware CRC)", "per cell",
        proc::tx_cell_instructions(sw, aal::AalType::kAal5, {false, false}));
  }
  ops.print("T1a: per-operation budget");

  // Amortized per-cell budget vs PDU size.
  core::Table amort(
      {"SDU bytes", "cells", "instr/cell (amortized)", "time/cell",
       "sustainable at", "line-bound at STS-3c", "line-bound at STS-12c"});
  double headline_mbps = 0.0, headline_instr = 0.0;
  for (std::size_t sdu : {40u, 256u, 1500u, 9180u, 65535u}) {
    const std::size_t cells = aal::aal5_cell_count(sdu);
    const double per_cell =
        static_cast<double>(proc::tx_pdu_instructions(fw)) /
            static_cast<double>(cells) +
        proc::tx_cell_instructions(fw, aal::AalType::kAal5, {false, false});
    const sim::Time t = engine.cost(static_cast<std::uint32_t>(per_cell));
    const double cells_per_s = 1.0 / sim::to_seconds(t);
    const double mbps = cells_per_s * 424.0 / 1e6;
    amort.add_row({core::Table::integer(sdu), core::Table::integer(cells),
                   core::Table::num(per_cell, 1), sim::format_time(t),
                   core::Table::num(mbps, 0) + " Mb/s payload",
                   t <= atm::sts3c().cell_slot() ? "yes" : "NO",
                   t <= atm::sts12c().cell_slot() ? "yes" : "NO"});
    if (sdu == 9180u) {
      headline_mbps = mbps;
      headline_instr = per_cell;
    }
  }
  amort.print("T1b: amortized TX budget vs PDU size (AAL5)");

  hni::bench::JsonEmitter json("bench_t1_tx_budget");
  json.rate("t1_tx_budget/aal5_9180_sustainable_mbps", headline_mbps);
  json.cost("t1_tx_budget/aal5_9180_instr_per_cell", headline_instr);
  json.write_or_die(cli.json);
  return 0;
}
