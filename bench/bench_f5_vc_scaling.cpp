// F5 — Receive-side cost vs number of concurrent VCs.
//
// The reassembly engine must find per-VC state for every cell. With a
// CAM the lookup is constant; in software it is a hash probe charged
// per displacement. The VC table is an open-addressing (robin-hood)
// hash that grows on demand, so the software column measures the true
// residual probe cost at each population rather than a configured
// chain length. This bench drives
// the RX path directly with line-rate interleaved traffic across N VCs
// and reports measured instructions per cell and loss onset, CAM vs
// hash. (Bench P2 sweeps the table itself to millions of entries.)

#include <cstdio>
#include <vector>

#include "aal/aal5.hpp"
#include "atm/phy.hpp"
#include "bench_util.hpp"
#include "core/report.hpp"
#include "nic/rx_path.hpp"

using namespace hni;

struct Result {
  double instr_per_cell;
  std::uint64_t fifo_drops;
  std::uint64_t pdus_ok;
};

Result run(std::size_t n_vcs, bool cam) {
  sim::Simulator sim;
  bus::Bus bus(sim, bus::BusConfig{});
  bus::HostMemory mem(8u << 20, 4096);
  proc::FirmwareProfile fw;
  fw.assists.cam_lookup = cam;
  nic::RxPathConfig cfg;
  cfg.engine.clock_hz = 33e6;
  cfg.fifo_cells = 128;
  nic::RxPath rx(sim, bus, mem, fw, cfg);

  // Pre-segment one small PDU per VC and interleave them round-robin at
  // the STS-3c slot rate.
  std::vector<std::vector<atm::Cell>> pdus(n_vcs);
  for (std::size_t v = 0; v < n_vcs; ++v) {
    const atm::VcId vc{0, static_cast<std::uint16_t>(v + 1)};
    rx.open_vc(vc, aal::AalType::kAal5);
    pdus[v] = aal::aal5_segment(aal::make_pattern(400, v + 1), vc);
  }

  const sim::Time slot = atm::sts3c().cell_slot();
  sim::Time t = 0;
  const int rounds = 40;
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < pdus[0].size(); ++i) {
      for (std::size_t v = 0; v < n_vcs; ++v) {
        atm::Cell cell = pdus[v][i];
        cell.meta.created = t;
        sim.at(t, [&rx, cell] {
          net::WireCell w;
          w.bytes = cell.serialize(atm::HeaderFormat::kUni);
          w.meta = cell.meta;
          rx.receive_wire(w);
        });
        t += slot;
      }
    }
  }
  sim.run_until(t + sim::milliseconds(5));

  Result r;
  const auto cells = rx.cells_received() - rx.cells_fifo_dropped();
  r.instr_per_cell =
      cells == 0 ? 0.0
                 : static_cast<double>(rx.engine().instructions_retired()) /
                       static_cast<double>(cells);
  r.fifo_drops = rx.cells_fifo_dropped();
  r.pdus_ok = rx.pdus_delivered();
  return r;
}

int main(int argc, char** argv) {
  const hni::bench::Cli cli = hni::bench::parse_cli(argc, argv);
  // Smoke keeps the flat region, the load-factor-1 knee and the tail.
  const std::vector<std::size_t> counts =
      cli.smoke ? std::vector<std::size_t>{1, 64, 1024}
                : std::vector<std::size_t>{1, 4, 16, 64, 128, 256,
                                           512, 1024, 2048};
  double cam_1024 = 0.0, hash_1024 = 0.0;
  std::printf("F5: RX lookup cost vs concurrent VCs (64-bucket hash, "
              "33 MHz engine, STS-3c arrivals)\n");

  core::Table t({"active VCs", "CAM instr/cell", "hash instr/cell",
                 "hash/CAM", "CAM drops", "hash drops"});
  for (std::size_t n : counts) {
    const Result cam = run(n, true);
    const Result hash = run(n, false);
    if (n == 1024) {
      cam_1024 = cam.instr_per_cell;
      hash_1024 = hash.instr_per_cell;
    }
    t.add_row({core::Table::integer(n),
               core::Table::num(cam.instr_per_cell, 1),
               core::Table::num(hash.instr_per_cell, 1),
               core::Table::num(hash.instr_per_cell / cam.instr_per_cell, 2),
               core::Table::integer(cam.fifo_drops),
               core::Table::integer(hash.fifo_drops)});
  }
  t.print("F5: per-cell engine cost vs VC count");

  std::printf("\nReading: CAM-assisted lookup is flat in the VC count; "
              "software hashing grows linearly\nonce chains exceed one "
              "entry (load factor > 1), eating the engine's slack and "
              "eventually\ncausing FIFO loss — the scaling argument for "
              "the CAM in the receive datapath.\n");

  hni::bench::JsonEmitter json("bench_f5_vc_scaling");
  json.cost("f5_vc_scaling/cam_instr_per_cell_1024vc", cam_1024);
  json.cost("f5_vc_scaling/hash_instr_per_cell_1024vc", hash_1024);
  json.write_or_die(cli.json);
  return 0;
}
