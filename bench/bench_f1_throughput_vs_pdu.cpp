// F1 — Goodput vs CS-PDU size.
//
// The classic host-interface figure: per-PDU overheads (syscall,
// descriptor, DMA programming, trailer build, per-PDU engine work)
// dominate small PDUs; as the PDU grows they amortize and goodput
// climbs to the AAL's share of the line rate. The knee's location is
// the quantity of interest.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"

using namespace hni;

int main(int argc, char** argv) {
  const hni::bench::Cli cli = hni::bench::parse_cli(argc, argv);
  bool audit_clean = true;  // every run_p2p balanced its books
  std::printf("F1: goodput vs CS-PDU size (greedy source, AAL5)\n");

  // Smoke keeps the knee's endpoints and the headline 9180 point.
  const std::vector<std::size_t> sdus =
      cli.smoke ? std::vector<std::size_t>{40, 512, 9180, 65535}
                : std::vector<std::size_t>{40,   128,  256,   512,  1024,
                                           2048, 4096, 9180,  16384,
                                           32768, 65535};
  double headline_bps = 0.0;  // 9180 B @ STS-12c (the second line pass)

  for (const auto& [line_name, line] :
       {std::pair{"STS-3c", atm::sts3c()},
        std::pair{"STS-12c", atm::sts12c()}}) {
    core::Table t({"SDU bytes", "cells", "goodput Mb/s", "ceiling Mb/s",
                   "efficiency", "latency us (mean)"});
    for (std::size_t sdu : sdus) {
      core::P2pConfig cfg;
      net::SduSource::Config& traffic = cfg.flows.emplace_back().source;
      traffic.mode = net::SduSource::Mode::kGreedy;
      traffic.sdu_bytes = sdu;
      cfg.station.nic.line = line;
      // Amortization, not overload, is under study: engines above line rate.
      cfg.station.nic.with_clock(50e6);
      cfg.station.host.cpu.clock_hz = 400e6;
      cfg.station.host.cpu.cpi = 1.0;
      cfg.station.host.max_inflight_tx = 64;
      cfg.warmup = sim::milliseconds(2);
      // Long window: at 65535-byte PDUs a 10 ms window holds only ~2-3
      // deliveries and quantization dominates.
      cfg.measure = sim::milliseconds(cli.smoke ? 20 : 60);
      const auto r = core::run_p2p(cfg);
      audit_clean = audit_clean && r.audit_clean;
      if (sdu == 9180) headline_bps = r.goodput_bps;

      const double cells = static_cast<double>(aal::aal5_cell_count(sdu));
      const double ceiling =
          line.payload_bps * (static_cast<double>(sdu) * 8.0) /
          (cells * 424.0);
      t.add_row({core::Table::integer(sdu),
                 core::Table::integer(static_cast<std::uint64_t>(cells)),
                 core::Table::num(r.goodput_bps / 1e6, 1),
                 core::Table::num(ceiling / 1e6, 1),
                 core::Table::percent(r.goodput_bps / ceiling),
                 core::Table::num(r.latency_mean_us, 1)});
    }
    t.print(std::string("F1 @ ") + line_name);
  }

  hni::bench::JsonEmitter json("bench_f1_throughput_vs_pdu");
  json.rate("f1_goodput/sts12c_9180_bytes_per_s", headline_bps / 8.0);
  json.write_or_die(cli.json);
  return audit_clean ? 0 : 1;
}
