// T3 — Achievable end-to-end throughput matrix.
//
// Full-system simulation (host -> NIC -> wire -> NIC -> host) of a
// greedy large-PDU transfer for every combination of AAL, engine clock
// and line rate. Shows where the interface is line-bound (goodput at
// the AAL's payload ceiling) versus engine-bound, and how the receive
// engine's utilization climbs toward 1.0 at the crossover.

#include <cstdio>

#include "bench_util.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"

using namespace hni;

int main(int argc, char** argv) {
  const hni::bench::Cli cli = hni::bench::parse_cli(argc, argv);
  bool audit_clean = true;  // every run_p2p balanced its books
  std::printf("T3: achievable throughput, greedy 9180-byte PDUs\n");
  hni::bench::JsonEmitter json("bench_t3_throughput_matrix");

  core::Table t({"line", "AAL", "engine clock", "goodput Mb/s",
                 "line util", "tx-engine util", "rx-engine util",
                 "cells dropped", "verdict"});

  for (const auto& [line_name, line] :
       {std::pair{"STS-3c", atm::sts3c()},
        std::pair{"STS-12c", atm::sts12c()}}) {
    for (auto aal : {aal::AalType::kAal5, aal::AalType::kAal34}) {
      for (double mhz : {25.0, 33.0, 50.0}) {
        if (cli.smoke && mhz == 33.0) continue;  // keep the endpoints
        core::P2pConfig cfg;
        net::SduSource::Config& traffic = cfg.flows.emplace_back().source;
        cfg.aal = aal;
        traffic.mode = net::SduSource::Mode::kGreedy;
        traffic.sdu_bytes = 9180;
        cfg.station.nic.line = line;
        cfg.station.nic.with_clock(mhz * 1e6);
        // The host must not be the bottleneck in this experiment.
        cfg.station.host.cpu.clock_hz = 400e6;
        cfg.station.host.cpu.cpi = 1.0;
        cfg.station.host.max_inflight_tx = 64;
        cfg.warmup = sim::milliseconds(2);
        cfg.measure = sim::milliseconds(12);

        const auto r = core::run_p2p(cfg);

        audit_clean = audit_clean && r.audit_clean;
        const double cells =
            static_cast<double>(aal::FrameSegmenter::cell_count(aal, 9180));
        const double ceiling =
            line.payload_bps * (9180.0 * 8.0) / (cells * 424.0);
        const bool line_bound = r.goodput_bps > 0.97 * ceiling;
        t.add_row({line_name, std::string(aal::to_string(aal)),
                   core::Table::num(mhz, 0) + " MHz",
                   core::Table::num(r.goodput_bps / 1e6, 1),
                   core::Table::percent(r.tx_line_util),
                   core::Table::percent(r.tx_engine_util),
                   core::Table::percent(r.rx_engine_util),
                   core::Table::integer(r.cells_fifo_dropped),
                   line_bound ? "line-bound" : "engine-bound"});
        char row_name[96];
        std::snprintf(row_name, sizeof row_name,
                      "t3_throughput/%s/%s/%.0fMHz", line_name,
                      std::string(aal::to_string(aal)).c_str(), mhz);
        json.rate(row_name, r.goodput_bps / 8.0);  // bytes/s
      }
    }
  }
  t.print("T3: throughput matrix (goodput ceiling = payload rate x "
          "SDU/(cells x 424))");
  std::printf(
      "\nReading: at STS-3c every configuration is line-bound — the AAL5/"
      "AAL3-4 difference is purely\nthe 48-vs-44 payload octets per cell. "
      "At STS-12c the receive engine becomes the limit; when\nits sustained "
      "deficit sheds cells (dropped > 0), *every* large PDU is damaged and "
      "PDU goodput\ncollapses to zero even though most cells still get "
      "through — overload at the cell layer is\ncatastrophic at the frame "
      "layer, which is why the engine must be provisioned for the line.\n");
  json.write_or_die(cli.json);
  return audit_clean ? 0 : 1;
}
