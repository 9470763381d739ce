// P1 — Event-kernel scalability: many stations, thousands of VCs,
// sustained STS-12c.
//
// Everything else in bench/ measures the modeled hardware; this one
// measures the simulator itself. It builds N full-duplex station
// pairs, opens 256 VCs per pair, drives every pair with greedy AAL5
// traffic at STS-12c line rate, and reports *wall-clock* kernel
// throughput (events/s) alongside the work it buys: delivered cells
// per wall second and kernel events per delivered cell. Events/s alone
// misleads — removing a no-op event (an idle framer slot) lowers it
// while every cell gets cheaper — so cells/s is the figure of merit. The
// invariant auditor runs over every station afterwards: a kernel that
// reorders ties or drops events breaks conservation identities long
// before it breaks a microbenchmark.
//
// This is the scale regime the kernel overhaul targets: the heap holds
// one timer per VC/link/engine (thousands of pending events), so heap
// depth, cancellation churn, and per-event allocation all show up here
// at full weight.
//
//   bench_p1_kernel_scale           full sweep (up to 8 pairs / 2048 VCs)
//   bench_p1_kernel_scale --smoke   one small row (CI-sized, a few sec)

#include <chrono>
#include <cstdio>
#include "bench_util.hpp"

#include <cstring>
#include <memory>
#include <vector>

#include "core/report.hpp"
#include "core/testbed.hpp"
#include "net/traffic.hpp"

using namespace hni;

namespace {

struct Result {
  std::size_t pairs = 0;
  std::size_t vcs = 0;
  double sim_ms = 0;
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t cells_rx = 0;
  std::uint64_t pdus_rx = 0;
  std::size_t audit_checks = 0;
  bool audit_ok = false;
};

Result run(std::size_t pairs, std::size_t vcs_per_pair, sim::Time sim_span) {
  core::Testbed bed;

  struct Pair {
    core::Station* tx;
    core::Station* rx;
    std::vector<atm::VcId> vcs;
    std::unique_ptr<net::SduSource> source;
    std::size_t next_vc = 0;
    std::uint64_t pdus = 0;
  };
  std::vector<Pair> lanes(pairs);

  for (std::size_t p = 0; p < pairs; ++p) {
    Pair& lane = lanes[p];
    core::StationConfig sc;
    sc.nic.line = atm::sts12c();
    sc.nic.with_clock(100e6);  // engine fast enough to sustain the line
    sc.name = "tx" + std::to_string(p);
    lane.tx = &bed.add_station(sc);
    sc.name = "rx" + std::to_string(p);
    lane.rx = &bed.add_station(sc);
    bed.connect(*lane.tx, *lane.rx);

    for (std::size_t v = 0; v < vcs_per_pair; ++v) {
      const atm::VcId vc{0, static_cast<std::uint16_t>(v + 1)};
      lane.tx->nic().open_vc(vc, aal::AalType::kAal5);
      lane.rx->nic().open_vc(vc, aal::AalType::kAal5);
      lane.vcs.push_back(vc);
    }
    lane.rx->host().set_rx_handler(
        [&lane](aal::Bytes, const host::RxInfo&) { ++lane.pdus; });

    // One greedy source per pair, rotating SDUs across all of the
    // pair's VCs — every VC carries traffic, the line stays saturated.
    net::SduSource::Config traffic;
    traffic.mode = net::SduSource::Mode::kGreedy;
    traffic.sdu_bytes = 9180;
    traffic.seed = 100 + p;
    lane.source = std::make_unique<net::SduSource>(
        bed.sim(), traffic, [&lane](aal::Bytes sdu) {
          const atm::VcId vc = lane.vcs[lane.next_vc];
          if (lane.tx->host().send(vc, aal::AalType::kAal5,
                                   std::move(sdu))) {
            lane.next_vc = (lane.next_vc + 1) % lane.vcs.size();
            return true;
          }
          return false;
        });
    lane.tx->host().set_tx_ready(
        [src = lane.source.get()] { src->notify_ready(); });
    lane.source->start();
  }

  const auto wall_start = std::chrono::steady_clock::now();
  bed.run_for(sim_span);
  const auto wall_end = std::chrono::steady_clock::now();

  Result r;
  r.pairs = pairs;
  r.vcs = pairs * vcs_per_pair;
  r.sim_ms = static_cast<double>(sim_span) / 1e9;
  r.wall_s = std::chrono::duration<double>(wall_end - wall_start).count();
  r.events = bed.sim().events_fired();
  for (Pair& lane : lanes) {
    lane.source->stop();
    r.cells_rx += lane.rx->nic().rx().cells_received();
    r.pdus_rx += lane.pdus;
  }
  core::InvariantAuditor auditor = bed.audit(/*include_hops=*/false);
  r.audit_checks = auditor.checks_run();
  r.audit_ok = auditor.ok();
  if (!r.audit_ok) std::fprintf(stderr, "%s", auditor.report().c_str());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const hni::bench::Cli cli = hni::bench::parse_cli(argc, argv);
  const bool smoke = cli.smoke;
  double last_events_per_s = 0.0;
  double last_cells_per_s = 0.0;
  double last_events_per_cell = 0.0;
  std::printf("P1: event-kernel scale — station pairs at STS-12c, greedy "
              "AAL5 across 256 VCs/pair\n");

  struct Row {
    std::size_t pairs;
    std::size_t vcs_per_pair;
    sim::Time span;
  };
  std::vector<Row> rows;
  if (smoke) {
    rows.push_back({2, 64, sim::milliseconds(2)});
  } else {
    rows.push_back({2, 256, sim::milliseconds(10)});
    rows.push_back({4, 256, sim::milliseconds(10)});
    rows.push_back({8, 256, sim::milliseconds(10)});
  }

  core::Table t({"pairs", "VCs", "sim ms", "wall s", "events",
                 "events/s", "cells rx", "cells/s", "events/cell",
                 "PDUs rx", "audit"});
  bool all_ok = true;
  for (const Row& row : rows) {
    const Result r = run(row.pairs, row.vcs_per_pair, row.span);
    all_ok = all_ok && r.audit_ok;
    const double cells = static_cast<double>(r.cells_rx);
    last_events_per_s = static_cast<double>(r.events) / r.wall_s;
    last_cells_per_s = cells / r.wall_s;
    last_events_per_cell =
        cells > 0 ? static_cast<double>(r.events) / cells : 0.0;
    t.add_row({core::Table::integer(r.pairs), core::Table::integer(r.vcs),
               core::Table::num(r.sim_ms, 0), core::Table::num(r.wall_s, 2),
               core::Table::integer(r.events),
               core::Table::num(last_events_per_s / 1e6, 1),
               core::Table::integer(r.cells_rx),
               core::Table::num(last_cells_per_s / 1e6, 2),
               core::Table::num(last_events_per_cell, 3),
               core::Table::integer(r.pdus_rx),
               r.audit_ok ? "ok (" + std::to_string(r.audit_checks) + ")"
                          : "FAIL"});
  }
  t.print("P1: kernel throughput at scale (events/s and cells/s are "
          "wall-clock, in millions)");

  std::printf("\nReading: delivered cells per wall second is the cost of "
              "running experiments at this\nscale; events/cell is the "
              "deterministic work the kernel does per delivered cell\n"
              "(framer slots, link, engines, bus, host). events/s alone "
              "is not a figure of merit:\nevents that do no work (an idle "
              "cell slot) raise it while making every cell dearer.\nThe "
              "events column grows linearly with offered load (pairs), "
              "while cells/s should\nstay roughly flat — the kernel's "
              "heap is logarithmic in thousands of pending timers\nand "
              "the per-event constant is allocation-free.\n");

  hni::bench::JsonEmitter json("bench_p1_kernel_scale");
  json.rate("p1_kernel/wallclock_events_per_s", last_events_per_s);
  json.rate("p1_kernel/wallclock_cells_per_s", last_cells_per_s);
  json.exact("p1_kernel/events_per_cell", last_events_per_cell);
  json.score("p1_kernel/audits_clean", all_ok ? 1.0 : 0.0);
  json.write_or_die(cli.json);
  return all_ok ? 0 : 1;
}
