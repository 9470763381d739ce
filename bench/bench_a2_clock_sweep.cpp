// A2 — Ablation: protocol engine clock.
//
// Sweeps both engines' clocks at STS-12c and reports goodput plus the
// receive engine's utilization. The crossover — the clock at which the
// receive side stops being the bottleneck and the interface becomes
// line-bound — is the headline number for "can this architecture do
// 622 Mb/s".

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"

using namespace hni;

int main(int argc, char** argv) {
  const hni::bench::Cli cli = hni::bench::parse_cli(argc, argv);
  bool audit_clean = true;  // every run_p2p balanced its books
  // Smoke brackets the engine-bound/line-bound crossover (~31 MHz).
  const std::vector<double> clocks =
      cli.smoke ? std::vector<double>{12.5, 29.0, 33.0, 66.0}
                : std::vector<double>{12.5, 16.0, 20.0, 25.0, 29.0,
                                      33.0, 40.0, 50.0, 66.0};
  double goodput_66 = 0.0;
  std::printf("A2: engine clock sweep at STS-12c (greedy 9180-byte AAL5 "
              "PDUs)\n");

  core::Table t({"engine MHz", "goodput Mb/s", "line util",
                 "rx engine util", "tx engine util", "cells dropped",
                 "verdict"});
  double ceiling = 0;
  {
    const double cells = static_cast<double>(aal::aal5_cell_count(9180));
    ceiling = atm::sts12c().payload_bps * (9180.0 * 8.0) / (cells * 424.0);
  }
  for (double mhz : clocks) {
    core::P2pConfig cfg;
    net::SduSource::Config& traffic = cfg.flows.emplace_back().source;
    traffic.mode = net::SduSource::Mode::kGreedy;
    traffic.sdu_bytes = 9180;
    cfg.station.nic.line = atm::sts12c();
    cfg.station.nic.with_clock(mhz * 1e6);
    cfg.station.host.cpu.clock_hz = 400e6;
    cfg.station.host.cpu.cpi = 1.0;
    cfg.station.host.max_inflight_tx = 64;
    cfg.warmup = sim::milliseconds(1);
    cfg.measure = sim::milliseconds(8);
    const auto r = core::run_p2p(cfg);
    audit_clean = audit_clean && r.audit_clean;
    if (mhz == 66.0) goodput_66 = r.goodput_bps;
    t.add_row({core::Table::num(mhz, 1),
               core::Table::num(r.goodput_bps / 1e6, 1),
               core::Table::percent(r.tx_line_util),
               core::Table::percent(r.rx_engine_util),
               core::Table::percent(r.tx_engine_util),
               core::Table::integer(r.cells_fifo_dropped),
               r.goodput_bps > 0.97 * ceiling ? "line-bound"
                                              : "engine-bound"});
  }
  t.print("A2: clock sweep @ STS-12c (AAL5 ceiling " +
          core::Table::num(ceiling / 1e6, 1) + " Mb/s)");
  std::printf("\nReading: transmit is never the limit; receive crosses "
              "from engine-bound to line-bound\nwhere its middle-cell "
              "service time (22 instr) drops under the 707.8 ns slot, "
              "i.e. around 31 MHz\n— one 25 MHz 80960CA is enough for "
              "STS-3c but STS-12c needs the faster grade or more\n"
              "hardware assist.\n");

  hni::bench::JsonEmitter json("bench_a2_clock_sweep");
  json.rate("a2_clock/goodput_bytes_per_s_66MHz", goodput_66 / 8.0);
  json.write_or_die(cli.json);
  return audit_clean ? 0 : 1;
}
