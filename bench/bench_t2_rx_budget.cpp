// T2 — Receive (reassembly) engine cycle budget.
//
// The receive side is the architecture's hard side: VC lookup, buffer
// chaining, and trailer validation put the per-cell budget well above
// the transmit side's, and the first/last cells of a PDU carry
// surcharges. This table shows where the time goes, per cell position
// and AAL, with and without the board's hardware assists.

#include <cstdio>

#include "bench_util.hpp"
#include "atm/phy.hpp"
#include "core/report.hpp"
#include "proc/engine.hpp"
#include "proc/firmware.hpp"

using namespace hni;

int main(int argc, char** argv) {
  // --smoke accepted for fleet uniformity; pure arithmetic tables.
  const hni::bench::Cli cli = hni::bench::parse_cli(argc, argv);
  sim::Simulator sim;
  proc::Engine engine(sim, {25e6, 1.0});
  const sim::Time slot3 = atm::sts3c().cell_slot();
  const sim::Time slot12 = atm::sts12c().cell_slot();

  std::printf("T2: RX reassembly engine budget (25 MIPS engine)\n");
  std::printf("    cell slot: %s @ STS-3c, %s @ STS-12c\n",
              sim::format_time(slot3).c_str(),
              sim::format_time(slot12).c_str());

  struct Variant {
    const char* name;
    proc::FirmwareProfile fw;
  };
  proc::FirmwareProfile full{};  // CAM + CRC offload (the design point)
  proc::FirmwareProfile no_cam = full;
  no_cam.assists.cam_lookup = false;
  proc::FirmwareProfile no_assist = no_cam;
  no_assist.assists.crc_offload = false;

  const Variant variants[] = {
      {"CAM + hw CRC (design point)", full},
      {"hash lookup + hw CRC", no_cam},
      {"hash lookup + fw CRC", no_assist},
  };

  for (const auto& v : variants) {
    core::Table t({"cell position", "AAL", "instr", "time",
                   "fits STS-3c", "fits STS-12c"});
    struct Pos {
      const char* name;
      proc::CellPosition pos;
    };
    const Pos positions[] = {{"first of PDU", {true, false}},
                             {"middle", {false, false}},
                             {"last of PDU", {false, true}},
                             {"single-cell PDU", {true, true}}};
    for (const auto& p : positions) {
      for (auto aal : {aal::AalType::kAal5, aal::AalType::kAal34}) {
        const auto instr = proc::rx_cell_instructions(v.fw, aal, p.pos, 0);
        const sim::Time tm = engine.cost(instr);
        t.add_row({p.name, std::string(aal::to_string(aal)),
                   core::Table::integer(instr), sim::format_time(tm),
                   tm <= slot3 ? "yes" : "NO",
                   tm <= slot12 ? "yes" : "NO"});
      }
    }
    t.print(std::string("T2: RX per-cell budget — ") + v.name);
  }

  // The comparison the paper's split rests on.
  core::Table sum({"direction", "middle-cell instr (AAL5)", "time",
                   "share of STS-12c slot"});
  const auto rx = proc::rx_cell_instructions(full, aal::AalType::kAal5,
                                             {false, false});
  const auto tx = proc::tx_cell_instructions(full, aal::AalType::kAal5,
                                             {false, false});
  sum.add_row({"receive", core::Table::integer(rx),
               sim::format_time(engine.cost(rx)),
               core::Table::percent(
                   static_cast<double>(engine.cost(rx)) /
                   static_cast<double>(slot12))});
  sum.add_row({"transmit", core::Table::integer(tx),
               sim::format_time(engine.cost(tx)),
               core::Table::percent(
                   static_cast<double>(engine.cost(tx)) /
                   static_cast<double>(slot12))});
  sum.print("T2b: the RX/TX asymmetry");

  hni::bench::JsonEmitter json("bench_t2_rx_budget");
  json.cost("t2_rx_budget/aal5_mid_cell_instr_rx", static_cast<double>(rx));
  json.cost("t2_rx_budget/aal5_mid_cell_instr_tx", static_cast<double>(tx));
  json.write_or_die(cli.json);
  return 0;
}
