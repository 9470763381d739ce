// P2 — VC-state scalability: the data plane from 2k to 1M connections.
//
// The paper's interface assumes a CAM assist for per-VC lookup; the
// software path must hold its own as the connection table grows. This
// bench populates a 4-port switch with N routed+policed VCs (VPI
// extends the space past the 16-bit VCI), then drives a paced cell
// stream across a bounded hot set of flows strided through the full
// population (so probes walk the real index at every N) and reports:
//
//   * events/s — wall-clock kernel throughput while forwarding. With
//     the open-addressing table this should be flat in N; the old
//     node-based maps bent it downward by 2k VCs.
//   * bytes/VC — steady-state footprint of the per-VC state (index +
//     pooled records), from Switch::vc_state_bytes().
//
// A second table opens VCs end to end on a core::Testbed station, with
// telemetry registered as Testbed always does, and reports:
//
//   * µs per Nic::open_vc — constant in N when opening a VC does no
//     registry work (per-VC counters live in the VC's own state);
//   * bytes/VC — heap growth across the opens, telemetry included
//     (RX reassembly state, VC index, per-VC counters);
//   * bytes/VC after traffic — heap growth across opening the VCs on
//     two connected stations and sending one 40-octet PDU on each, so
//     per-VC state that only traffic creates (TX queues, staging) is
//     counted too.
//
// The exit code enforces the acceptance criteria, so CI can run the
// smoke rows as a regression gate:
//   * the largest row's events/s must stay within 20% of the smallest's
//     (lookup cost flat in N), and
//   * every row must stay under 128 bytes/VC;
//   * the after-traffic row must stay under 800 bytes/VC;
//   * the Testbed row must add no registry entry per VC and render
//     every opened VC's rows in the snapshot.
// bench_compare gates µs per open_vc and the Testbed bytes/VC.
//
//   bench_p2_vc_scale                 full sweep (2k -> 1M VCs; Testbed
//                                     row at 65536 VCs)
//   bench_p2_vc_scale --smoke         2k + 16k rows, Testbed row at 4096
//                                     VCs (CI-sized)
//   bench_p2_vc_scale [--smoke] --json OUT.json
//                                     also write google-benchmark-style
//                                     JSON for scripts/bench_compare.py

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/report.hpp"
#include "core/testbed.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"

using namespace hni;

namespace {

constexpr std::size_t kPorts = 4;
// Active flows per row. Bounded (and small enough to stay cache-warm
// in steady state) so the sweep isolates what the table controls —
// probe displacement and index behaviour as N grows — from DRAM
// capacity misses, which hit any structure once the *hot* set itself
// outgrows the cache. The sampled flows stride the full population, so
// at 1M VCs the probes walk the real 2^21-slot index, not a dense
// corner of it.
constexpr std::size_t kSampleCap = 256;
constexpr double kMinRatio = 0.8;          // largest vs smallest events/s
constexpr double kMaxBytesPerVc = 128.0;
// Testbed row after one PDU per VC, both stations' VC state included.
// A std::deque per TX VC (a map and a 512-byte node the first time the
// VC carries a PDU) measured 1210 bytes/VC here; staged PDUs linked
// through shared board slots measure 583 (glibc malloc, x86-64).
constexpr double kMaxBytesPerVcAfterSend = 800.0;

// VC i of N: spread across ports, then across VPIs (the 16-bit VCI
// alone cannot address 1M connections).
atm::VcId vc_of(std::size_t i) {
  const std::size_t rest = i / kPorts;
  return atm::VcId{static_cast<std::uint16_t>(rest >> 16),
                   static_cast<std::uint16_t>(rest & 0xFFFF)};
}
std::size_t port_of(std::size_t i) { return i % kPorts; }

struct Result {
  std::size_t vcs = 0;
  double setup_s = 0;       // route+policer installation wall time
  double wall_s = 0;        // drive-phase wall time
  std::uint64_t events = 0;
  std::uint64_t cells = 0;
  double events_per_s = 0;
  double bytes_per_vc = 0;
  bool conserved = false;   // switch books balance after the run
};

Result run(std::size_t vcs, std::size_t cells_per_port) {
  sim::Simulator sim;
  net::SwitchConfig cfg;
  cfg.ports = kPorts;
  cfg.port_rate = atm::sts3c();
  net::Switch sw(sim, cfg);

  const auto setup_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < vcs; ++i) {
    const atm::VcId vc = vc_of(i);
    sw.add_route(port_of(i), vc, port_of(i), vc);
    // A non-binding policer (PCR far above the line) keeps the UPC
    // branch on the measured path without perturbing the stream.
    sw.add_policer(port_of(i), vc, 1e12, 0, net::Switch::PoliceAction::kDrop);
  }
  const auto setup_end = std::chrono::steady_clock::now();

  // Pre-serialize one wire cell per sampled VC: the drive loop measures
  // the switch (lookup, police, queue, serve), not cell encoding.
  const std::size_t sample = std::min(vcs, kSampleCap);
  const std::size_t stride = vcs / sample;
  std::vector<net::WireCell> cells(sample);
  std::vector<std::size_t> in_port(sample);
  for (std::size_t s = 0; s < sample; ++s) {
    // Snap the strided index to port s % kPorts so every input port
    // carries exactly a quarter of the sample, whatever the stride
    // (vcs is a multiple of kPorts in every row, so i stays in range).
    const std::size_t base = s * stride;
    const std::size_t i = (base - base % kPorts + s % kPorts) % vcs;
    atm::Cell cell;
    cell.header.vc = vc_of(i);
    cells[s].bytes = cell.serialize(atm::HeaderFormat::kUni);
    in_port[s] = port_of(i);
  }

  // One injector per port, paced at the port's service rate: queues
  // stay shallow and every injected cell is forwarded by run's end.
  const sim::Time slot = cfg.port_rate.cell_slot();
  std::uint64_t injected = 0;
  for (std::size_t p = 0; p < kPorts; ++p) {
    // Port p owns the sample entries with in_port == p (round-robin by
    // construction: s % kPorts == p when stride keeps port alignment —
    // filter explicitly to stay correct for any stride).
    auto lane = std::make_shared<std::vector<std::size_t>>();
    for (std::size_t s = 0; s < sample; ++s) {
      if (in_port[s] == p) lane->push_back(s);
    }
    if (lane->empty()) continue;
    auto tick = std::make_shared<std::function<void(std::size_t)>>();
    *tick = [&, lane, tick, p](std::size_t n) {
      if (n >= cells_per_port) return;
      const std::size_t s = (*lane)[n % lane->size()];
      sw.receive(p, cells[s]);
      ++injected;
      sim.after(slot, [tick, n] { (*tick)(n + 1); });
    };
    sim.after(slot * static_cast<sim::Time>(p + 1) / kPorts,
              [tick] { (*tick)(0); });
  }

  const auto wall_start = std::chrono::steady_clock::now();
  sim.run();
  const auto wall_end = std::chrono::steady_clock::now();

  Result r;
  r.vcs = vcs;
  r.setup_s = std::chrono::duration<double>(setup_end - setup_start).count();
  r.wall_s = std::chrono::duration<double>(wall_end - wall_start).count();
  r.events = sim.events_fired();
  r.cells = injected;
  r.events_per_s = static_cast<double>(r.events) / r.wall_s;
  r.bytes_per_vc =
      static_cast<double>(sw.vc_state_bytes()) / static_cast<double>(vcs);
  // Paced injection below the overflow point: every cell must have been
  // forwarded — anything dropped, unroutable or policed means the table
  // lost a connection's state.
  r.conserved = sw.cells_forwarded() == injected &&
                sw.cells_unroutable() == 0 && sw.cells_policed_dropped() == 0;
  return r;
}

// --- Testbed row: opening VCs end to end ------------------------------

struct OpenResult {
  std::size_t vcs = 0;
  double us_per_open = 0;
  double bytes_per_vc = 0;
  bool entries_flat = false;  // registry size unchanged by the opens
  bool rows_ok = false;       // every opened VC renders its RX rows
};

/// Bytes the allocator has handed out and not taken back.
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

OpenResult run_testbed(std::size_t vcs) {
  core::Testbed bed;
  core::Station& st = bed.add_station({});
  const std::size_t entries = bed.metrics().size();
  const std::size_t heap0 = heap_in_use();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < vcs; ++i) {
    st.nic().open_vc(atm::VcId{static_cast<std::uint16_t>(i / 4096),
                               static_cast<std::uint16_t>(32 + i % 4096)},
                     aal::AalType::kAal5);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const std::size_t heap1 = heap_in_use();

  OpenResult r;
  r.vcs = vcs;
  r.us_per_open = std::chrono::duration<double, std::micro>(t1 - t0).count() /
                  static_cast<double>(vcs);
  r.bytes_per_vc = static_cast<double>(heap1 - heap0) /
                   static_cast<double>(vcs);
  r.entries_flat = bed.metrics().size() == entries;
  std::size_t rx_rows = 0;
  for (const auto& m : bed.metrics().snapshot()) {
    if (m.name.find(".nic.rx.vc.") != std::string::npos) ++rx_rows;
  }
  r.rows_ok = rx_rows == 3 * vcs;  // cells, cells_efci_marked, pdus
  return r;
}

/// Opens `vcs` VCs on two connected stations and sends one one-cell
/// PDU on each; heap growth per VC once every PDU is delivered.
double run_testbed_send(std::size_t vcs) {
  core::Testbed bed;
  core::Station& a = bed.add_station({.name = "tx"});
  core::Station& b = bed.add_station({.name = "rx"});
  bed.connect(a, b);
  const std::size_t heap0 = heap_in_use();
  std::vector<atm::VcId> open;
  for (std::size_t i = 0; i < vcs; ++i) {
    const atm::VcId vc{static_cast<std::uint16_t>(i / 4096),
                       static_cast<std::uint16_t>(32 + i % 4096)};
    a.nic().open_vc(vc, aal::AalType::kAal5);
    b.nic().open_vc(vc, aal::AalType::kAal5);
    open.push_back(vc);
  }
  // At most 32 PDUs outstanding end to end: the receiving host's CPU
  // is slower than the line, and an unpaced sender would outrun its
  // posted receive buffers and lose PDUs.
  std::size_t sent = 0;
  std::size_t delivered = 0;
  std::function<void()> pump = [&] {
    while (sent < vcs && sent - delivered < 32 &&
           a.host().send(open[sent], aal::AalType::kAal5,
                         aal::make_pattern(40, sent))) {
      ++sent;
    }
  };
  b.host().set_rx_handler([&](aal::Bytes, const host::RxInfo&) {
    ++delivered;
    pump();
  });
  a.host().set_tx_ready(pump);
  pump();
  while (delivered < vcs && bed.sim().step()) {
  }
  const std::size_t heap1 = heap_in_use();
  if (delivered < vcs) return -1.0;
  return static_cast<double>(heap1 - heap0) / static_cast<double>(vcs);
}

}  // namespace

int main(int argc, char** argv) {
  const hni::bench::Cli cli = hni::bench::parse_cli(argc, argv);
  const bool smoke = cli.smoke;

  std::printf("P2: VC-state scale — 4-port switch, routed+policed VCs, "
              "paced cells across a bounded %zu-flow hot set\n",
              kSampleCap);

  // Enough cells per row that wall time is measurement, not noise: a
  // row runs a few hundred ms even at full kernel speed.
  std::vector<std::size_t> rows;
  std::size_t cells_per_port;
  std::size_t testbed_vcs;
  if (smoke) {
    rows = {2048, 16384};
    cells_per_port = 500000;
    testbed_vcs = 4096;
  } else {
    rows = {2048, 16384, 131072, 1048576};
    cells_per_port = 1000000;
    testbed_vcs = 65536;
  }

  // Best of several repetitions per row: on a shared machine noise only
  // ever subtracts from throughput, so max is the honest estimator —
  // and the first round doubles as cache/branch warmup. Rounds are
  // interleaved across rows (2k, 16k, ... then again) so a noisy
  // stretch of wall time degrades one rep of each row instead of every
  // rep of one row.
  constexpr int kReps = 4;
  std::vector<Result> results(rows.size());
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Result r = run(rows[i], cells_per_port);
      if (rep == 0 ||
          (r.conserved && r.events_per_s > results[i].events_per_s)) {
        results[i] = r;
      }
    }
  }
  // The Testbed row takes milliseconds, so it gets more repetitions:
  // its best of 32 is what the gate compares.
  constexpr int kOpenReps = 32;
  OpenResult opened;
  for (int rep = 0; rep < kOpenReps; ++rep) {
    const OpenResult o = run_testbed(testbed_vcs);
    if (rep == 0 || o.us_per_open < opened.us_per_open) opened = o;
  }
  // Deterministic in everything but the allocator's own bookkeeping:
  // one run suffices.
  const double after_send = run_testbed_send(testbed_vcs);

  core::Table t({"VCs", "setup s", "wall s", "events", "events/s (M)",
                 "cells", "bytes/VC", "books"});
  for (const Result& r : results) {
    t.add_row({core::Table::integer(r.vcs), core::Table::num(r.setup_s, 2),
               core::Table::num(r.wall_s, 2), core::Table::integer(r.events),
               core::Table::num(r.events_per_s / 1e6, 2),
               core::Table::integer(r.cells),
               core::Table::num(r.bytes_per_vc, 1),
               r.conserved ? "ok" : "FAIL"});
  }
  t.print("P2: data-plane cost vs connection count (events/s is "
          "wall-clock)");

  core::Table tb({"VCs", "us/open_vc", "bytes/VC", "registry entries",
                  "rows"});
  tb.add_row({core::Table::integer(opened.vcs),
              core::Table::num(opened.us_per_open, 3),
              core::Table::num(opened.bytes_per_vc, 1),
              opened.entries_flat ? "flat" : "GREW",
              opened.rows_ok ? "ok" : "FAIL"});
  tb.print("P2: Nic::open_vc on a Testbed station, telemetry on (bytes/VC "
           "is heap growth)");
  std::printf("P2: %zu VCs opened on two stations, one PDU sent on each: "
              "%.1f bytes/VC (cap %.0f)\n",
              opened.vcs, after_send, kMaxBytesPerVcAfterSend);

  hni::bench::JsonEmitter json("bench_p2_vc_scale");
  for (const Result& r : results) {
    json.rate("p2_vc_scale/" + std::to_string(r.vcs), r.events_per_s);
    json.cost("p2_vc_scale/" + std::to_string(r.vcs) + "/bytes_per_vc",
              r.bytes_per_vc);
  }
  const std::string tb_row = "p2_vc_scale/testbed/" +
                             std::to_string(opened.vcs);
  json.cost(tb_row + "/open_vc_us", opened.us_per_open);
  json.cost(tb_row + "/bytes_per_vc", opened.bytes_per_vc);
  json.cost(tb_row + "/bytes_per_vc_after_send", after_send);
  json.write_or_die(cli.json);

  // Acceptance: flat lookup cost and bounded footprint, enforced so a
  // regression fails the build rather than restyling a table.
  bool ok = true;
  for (const Result& r : results) {
    if (!r.conserved) {
      std::fprintf(stderr, "P2: FAIL %zu VCs: switch books unbalanced\n",
                   r.vcs);
      ok = false;
    }
    if (r.bytes_per_vc >= kMaxBytesPerVc) {
      std::fprintf(stderr, "P2: FAIL %zu VCs: %.1f bytes/VC (cap %.0f)\n",
                   r.vcs, r.bytes_per_vc, kMaxBytesPerVc);
      ok = false;
    }
  }
  if (!opened.entries_flat || !opened.rows_ok) {
    std::fprintf(stderr,
                 "P2: FAIL Testbed row: registry %s, per-VC rows %s\n",
                 opened.entries_flat ? "flat" : "grew with VCs",
                 opened.rows_ok ? "ok" : "missing");
    ok = false;
  }
  if (after_send < 0 || after_send >= kMaxBytesPerVcAfterSend) {
    std::fprintf(stderr,
                 "P2: FAIL Testbed row after traffic: %.1f bytes/VC "
                 "(cap %.0f; negative means PDUs went undelivered)\n",
                 after_send, kMaxBytesPerVcAfterSend);
    ok = false;
  }
  const double small = results.front().events_per_s;
  const double large = results.back().events_per_s;
  if (large < kMinRatio * small) {
    std::fprintf(stderr,
                 "P2: FAIL %zu VCs runs at %.2fM events/s vs %.2fM at %zu "
                 "VCs (floor %.0f%%)\n",
                 results.back().vcs, large / 1e6, small / 1e6,
                 results.front().vcs, kMinRatio * 100);
    ok = false;
  }
  std::printf("\nReading: events/s flat in N means per-cell VC lookup is "
              "O(1) at scale\n(robin-hood probes stay near home); bytes/VC "
              "is the whole table's footprint —\nindex slots plus "
              "arena-pooled route+policer+frame records.\n");
  return ok ? 0 : 1;
}
