// Traffic-management plane tests: DWRR weighted service, WRED boundary
// semantics, route-close queue purging, control-cell (OAM/RM) discard
// exemption, the ERICA explicit-rate stamp, the TX shaper's
// throttle-then-recovery lifecycle, and the SETUP traffic descriptor
// (SCR / weight / ABR) riding signalling down to the switch.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "atm/meter.hpp"
#include "atm/rm.hpp"
#include "core/testbed.hpp"
#include "net/traffic.hpp"
#include "nic/tx_path.hpp"
#include "sig/network.hpp"

namespace hni {
namespace {

const atm::VcId kVcA{0, 10};
const atm::VcId kVcB{0, 20};
const atm::VcId kVcC{0, 30};

net::WireCell wire(const atm::Cell& c) {
  net::WireCell w;
  w.bytes = c.serialize(atm::HeaderFormat::kUni);
  w.meta = c.meta;
  return w;
}

atm::Cell raw_cell(atm::VcId vc, bool clp = false) {
  atm::Cell c;
  c.header.vc = vc;
  c.header.clp = clp;
  return c;
}

atm::Cell rm_cell(atm::VcId vc, std::uint32_t er = atm::kRmErUnlimited,
                  std::uint8_t flags = atm::kRmFlagBackward) {
  atm::Cell c;
  c.header.vc = vc;
  c.header.pti = atm::Pti::kResourceMgmt;
  c.payload[0] = atm::kRmProtocolId;
  atm::rm_set_flags(c.payload.data(), flags);
  atm::rm_set_explicit_rate(c.payload.data(), er);
  return c;
}

// N-port switch, one designated output, forwarded headers captured.
struct SwitchFixture {
  sim::Simulator sim;
  net::Switch sw;
  net::Link out{sim, 0};
  std::vector<atm::CellHeader> forwarded;

  SwitchFixture(net::SwitchConfig cfg, std::size_t out_port)
      : sw(sim, cfg) {
    sw.attach_output(out_port, out);
    out.set_sink([this](const net::WireCell& w) {
      forwarded.push_back(atm::decode_header(
          std::span<const std::uint8_t, 4>(w.bytes.data(), 4),
          atm::HeaderFormat::kUni));
    });
  }

  void expect_queue_books_balanced() {
    core::InvariantAuditor auditor;
    auditor.audit_switch(sw, "sw");
    EXPECT_TRUE(auditor.ok()) << auditor.report();
  }
};

// --- DWRR ---------------------------------------------------------------

TEST(Dwrr, ServiceSharesTrackWeights) {
  net::SwitchConfig cfg{.ports = 4, .queue_cells = 128,
                        .clp_threshold = 128};
  cfg.scheduler = net::SwitchScheduler::kDwrr;
  SwitchFixture f(cfg, 3);
  f.sw.add_route(0, kVcA, 3, kVcA, /*weight=*/1);
  f.sw.add_route(1, kVcB, 3, kVcB, /*weight=*/2);
  f.sw.add_route(2, kVcC, 3, kVcC, /*weight=*/4);
  // Backlog all three so each stays in the ring for the whole window.
  for (int i = 0; i < 40; ++i) f.sw.receive(0, wire(raw_cell(kVcA)));
  for (int i = 0; i < 40; ++i) f.sw.receive(1, wire(raw_cell(kVcB)));
  for (int i = 0; i < 40; ++i) f.sw.receive(2, wire(raw_cell(kVcC)));
  f.sim.run_until(sim::milliseconds(2));
  ASSERT_EQ(f.forwarded.size(), 120u);

  // Cell 0 left before the others arrived; from there the rounds are
  // exact: 1 + 2 + 4 cells per ring rotation. Five rounds = 35 cells.
  std::size_t a = 0, b = 0, c = 0;
  for (std::size_t i = 1; i < 36; ++i) {
    if (f.forwarded[i].vc == kVcA) ++a;
    if (f.forwarded[i].vc == kVcB) ++b;
    if (f.forwarded[i].vc == kVcC) ++c;
  }
  EXPECT_EQ(a, 5u);
  EXPECT_EQ(b, 10u);
  EXPECT_EQ(c, 20u);
  f.expect_queue_books_balanced();
}

TEST(Dwrr, DrainedQueueForfeitsGrantAndLeavesRing) {
  net::SwitchConfig cfg{.ports = 4, .queue_cells = 128,
                        .clp_threshold = 128};
  cfg.scheduler = net::SwitchScheduler::kDwrr;
  SwitchFixture f(cfg, 3);
  f.sw.add_route(0, kVcA, 3, kVcA, /*weight=*/1);
  f.sw.add_route(2, kVcC, 3, kVcC, /*weight=*/4);
  // The heavy VC has only 2 cells: it must not bank the unused grant
  // or wedge the ring once it drains.
  for (int i = 0; i < 20; ++i) f.sw.receive(0, wire(raw_cell(kVcA)));
  for (int i = 0; i < 2; ++i) f.sw.receive(2, wire(raw_cell(kVcC)));
  f.sim.run_until(sim::milliseconds(2));
  EXPECT_EQ(f.forwarded.size(), 22u);
  EXPECT_EQ(f.sw.cells_queued(), 0u);
  f.expect_queue_books_balanced();
}

// --- Per-VC buffer accounting -------------------------------------------

// One-cell AAL5 PDU: AUU set, so each cell is a complete frame to the
// EPD machinery.
atm::Cell pdu_cell(atm::VcId vc) {
  atm::Cell c;
  c.header.vc = vc;
  c.header.pti = atm::Pti::kUserData1;
  return c;
}

TEST(PerVcBooks, EpdGatesOnOwnQueueNotSharedPool) {
  // vc_epd_cells = 4 with the shared-pool EPD disabled: a flooding VC
  // is gated by its *own* queue depth while a fresh VC on the same
  // port, arriving with the pool already backlogged, is admitted
  // untouched — the isolation the shared threshold cannot give.
  net::SwitchConfig cfg{.ports = 4, .queue_cells = 128,
                        .clp_threshold = 128};
  cfg.scheduler = net::SwitchScheduler::kDwrr;
  cfg.vc_epd_cells = 4;
  SwitchFixture f(cfg, 3);
  f.sw.add_route(0, kVcA, 3, kVcA);
  f.sw.add_route(1, kVcB, 3, kVcB);
  // Cell 0 is served instantly; cell i then meets its own queue at
  // depth i-1, so depths 0..3 admit (5 cells) and the rest are EPD'd.
  for (int i = 0; i < 12; ++i) f.sw.receive(0, wire(pdu_cell(kVcA)));
  EXPECT_EQ(f.sw.pdus_epd_discarded(), 7u);
  // B's queue is empty: admitted despite A's resident backlog.
  for (int i = 0; i < 3; ++i) f.sw.receive(1, wire(pdu_cell(kVcB)));
  EXPECT_EQ(f.sw.pdus_epd_discarded(), 7u);
  f.sim.run_until(sim::milliseconds(1));
  EXPECT_EQ(f.forwarded.size(), 8u);
  f.expect_queue_books_balanced();
}

TEST(PerVcBooks, HardCapDropsLandInVcLimitBook) {
  // vc_queue_cells alone (no frame awareness): cells beyond the cap
  // die in the dedicated book and the queue-stage identity still
  // balances.
  net::SwitchConfig cfg{.ports = 4, .queue_cells = 128,
                        .clp_threshold = 128};
  cfg.scheduler = net::SwitchScheduler::kDwrr;
  cfg.vc_queue_cells = 4;
  SwitchFixture f(cfg, 3);
  f.sw.add_route(0, kVcA, 3, kVcA);
  f.sw.add_route(1, kVcB, 3, kVcB);
  for (int i = 0; i < 12; ++i) f.sw.receive(0, wire(raw_cell(kVcA)));
  EXPECT_EQ(f.sw.cells_dropped_vc_limit(), 7u);
  for (int i = 0; i < 2; ++i) f.sw.receive(1, wire(raw_cell(kVcB)));
  EXPECT_EQ(f.sw.cells_dropped_vc_limit(), 7u);
  f.sim.run_until(sim::milliseconds(1));
  EXPECT_EQ(f.forwarded.size(), 7u);
  EXPECT_EQ(f.sw.cells_dropped_overflow(), 0u);
  f.expect_queue_books_balanced();
}

// --- WRED boundary ------------------------------------------------------

TEST(WredBoundary, DropIsForcedOnlyBeyondMaxThreshold) {
  // max_p = 0 makes every in-band draw a pass, so any WRED loss can
  // only come from the forced branch past the upper threshold. The
  // cell that meets occupancy == max (8) must survive; cells meeting
  // 9 must die without a draw.
  net::SwitchConfig cfg{.ports = 2, .queue_cells = 64,
                        .clp_threshold = 64};
  cfg.wred.enabled = true;
  cfg.wred.min_cells = 4;
  cfg.wred.max_cells = 8;
  cfg.wred.max_p = 0.0;
  SwitchFixture f(cfg, 1);
  f.sw.add_route(0, kVcA, 1, kVcA);
  // Cell 0 is served instantly, so cell i meets occupancy i-1.
  for (int i = 0; i < 12; ++i) f.sw.receive(0, wire(raw_cell(kVcA)));
  EXPECT_EQ(f.sw.cells_wred_dropped(), 2u);  // the two that met 9
  EXPECT_EQ(f.sw.queue_occupancy(1), 9u);    // the one that met 8 got in
  f.expect_queue_books_balanced();
  f.sim.run_until(sim::milliseconds(1));
  f.expect_queue_books_balanced();
}

TEST(WredBoundary, RampReachesMaxPAtMaxThresholdUntaggedBand) {
  // Degenerate band (min == max == 8) with max_p = 1: occupancy == max
  // draws at exactly max_p, which at probability one is a certain
  // drop. Anything below the band is untouched.
  net::SwitchConfig cfg{.ports = 2, .queue_cells = 64,
                        .clp_threshold = 64};
  cfg.wred.enabled = true;
  cfg.wred.min_cells = 8;
  cfg.wred.max_cells = 8;
  cfg.wred.max_p = 1.0;
  SwitchFixture f(cfg, 1);
  f.sw.add_route(0, kVcA, 1, kVcA);
  for (int i = 0; i < 12; ++i) f.sw.receive(0, wire(raw_cell(kVcA)));
  // Cells meeting occupancy 8 (the last three) all died at the
  // boundary; the pool never exceeds it.
  EXPECT_EQ(f.sw.cells_wred_dropped(), 3u);
  EXPECT_EQ(f.sw.queue_occupancy(1), 8u);
  f.expect_queue_books_balanced();
}

TEST(WredBoundary, RampReachesMaxPAtMaxThresholdTaggedBand) {
  // Same boundary semantics for the CLP-tagged band, via its own
  // thresholds (the untagged band stays disabled: max_cells = 0).
  net::SwitchConfig cfg{.ports = 2, .queue_cells = 64,
                        .clp_threshold = 64};
  cfg.wred.enabled = true;
  cfg.wred.clp1_min_cells = 8;
  cfg.wred.clp1_max_cells = 8;
  cfg.wred.clp1_max_p = 1.0;
  SwitchFixture f(cfg, 1);
  f.sw.add_route(0, kVcA, 1, kVcA);
  for (int i = 0; i < 12; ++i) {
    f.sw.receive(0, wire(raw_cell(kVcA, /*clp=*/true)));
  }
  EXPECT_EQ(f.sw.cells_wred_dropped(), 3u);
  EXPECT_EQ(f.sw.cells_wred_dropped_clp(), 3u);
  EXPECT_EQ(f.sw.queue_occupancy(1), 8u);
  f.expect_queue_books_balanced();
}

// --- remove_route purge -------------------------------------------------

void run_purge_test(net::SwitchScheduler sched) {
  net::SwitchConfig cfg{.ports = 3, .queue_cells = 128,
                        .clp_threshold = 128};
  cfg.scheduler = sched;
  SwitchFixture f(cfg, 2);
  f.sw.add_route(0, kVcA, 2, kVcA, /*weight=*/4);
  f.sw.add_route(1, kVcB, 2, kVcB, /*weight=*/1);
  for (int i = 0; i < 10; ++i) f.sw.receive(0, wire(raw_cell(kVcA)));
  for (int i = 0; i < 10; ++i) f.sw.receive(1, wire(raw_cell(kVcB)));
  // 19 resident (cell 0 already committed); A holds 9 of them and is
  // at the front of the active ring, mid-grant under DWRR. Under kFifo
  // all 19 sit in the port's shared queue, which no route owns.
  ASSERT_EQ(f.sw.cells_queued(), 19u);
  ASSERT_TRUE(f.sw.remove_route(0, kVcA));
  // The close purged A's residents — accounted, not leaked — and
  // retired its ring ticket with the record; kFifo's stay queued.
  const std::size_t purged =
      sched == net::SwitchScheduler::kFifo ? 0u : 9u;
  EXPECT_EQ(f.sw.cells_purged_on_close(), purged);
  EXPECT_EQ(f.sw.cells_dropped_overflow(), purged);
  EXPECT_EQ(f.sw.cells_queued(), 19u - purged);
  f.expect_queue_books_balanced();  // conservation holds mid-flight

  // Late cells on the closed VC are unroutable, and the scheduler
  // serves the survivor without touching the dead queue's arena slot.
  f.sw.receive(0, wire(raw_cell(kVcA)));
  EXPECT_EQ(f.sw.cells_unroutable(), 1u);
  f.sim.run_until(sim::milliseconds(1));
  EXPECT_EQ(f.forwarded.size(), 20u - purged);  // A's head cell + all of B
  EXPECT_EQ(f.sw.cells_queued(), 0u);
  f.expect_queue_books_balanced();
}

TEST(CloseVc, PurgesResidentQueueUnderRoundRobin) {
  run_purge_test(net::SwitchScheduler::kRoundRobin);
}

TEST(CloseVc, PurgesResidentQueueUnderDwrr) {
  run_purge_test(net::SwitchScheduler::kDwrr);
}

TEST(CloseVc, KeepsTheSharedQueueUnderFifo) {
  run_purge_test(net::SwitchScheduler::kFifo);
}

// --- control-cell exemption ---------------------------------------------

TEST(ControlCells, DrawOnReservedHeadroomAboveSaturatedPool) {
  net::SwitchConfig cfg{.ports = 2, .queue_cells = 8, .clp_threshold = 8};
  cfg.efci_threshold = 2;
  cfg.control_reserve_cells = 4;
  SwitchFixture f(cfg, 1);
  f.sw.add_route(0, kVcA, 1, kVcA);
  // Saturate the shared pool with user data: cells meeting
  // occupancy >= 8 tail-drop, so the pool pins at 8.
  for (int i = 0; i < 12; ++i) f.sw.receive(0, wire(raw_cell(kVcA)));
  ASSERT_EQ(f.sw.queue_occupancy(1), 8u);
  const std::uint64_t data_drops = f.sw.cells_dropped_overflow();
  ASSERT_GT(data_drops, 0u);

  // Backward RM cells ride through the saturation on the reserve —
  // exactly 4 fit — and only then do control cells tail-drop too.
  for (int i = 0; i < 6; ++i) f.sw.receive(0, wire(rm_cell(kVcA)));
  EXPECT_EQ(f.sw.queue_occupancy(1), 12u);
  EXPECT_EQ(f.sw.cells_dropped_overflow(), data_drops + 2);
  f.expect_queue_books_balanced();

  f.sim.run_until(sim::milliseconds(1));
  // The four admitted RM cells came out the far side unmutated: no
  // EFCI mark ever touches a control cell (PTI stays kResourceMgmt).
  std::size_t rm_out = 0;
  for (const auto& h : f.forwarded) {
    if (h.pti == atm::Pti::kResourceMgmt) ++rm_out;
  }
  EXPECT_EQ(rm_out, 4u);
  f.expect_queue_books_balanced();
}

TEST(ControlCells, SkipClpThresholdAndWred) {
  net::SwitchConfig cfg{.ports = 2, .queue_cells = 8, .clp_threshold = 2};
  cfg.wred.enabled = true;
  cfg.wred.clp1_min_cells = 2;
  cfg.wred.clp1_max_cells = 2;
  cfg.wred.clp1_max_p = 1.0;
  SwitchFixture f(cfg, 1);
  f.sw.add_route(0, kVcA, 1, kVcA);
  // Raise the pool past both tagged-cell gates.
  for (int i = 0; i < 4; ++i) f.sw.receive(0, wire(raw_cell(kVcA)));
  ASSERT_GE(f.sw.queue_occupancy(1), 2u);

  // A tagged *user* cell dies (WRED's tagged band is certain here); a
  // tagged *RM* cell must pass both WRED and the CLP threshold.
  f.sw.receive(0, wire(raw_cell(kVcA, /*clp=*/true)));
  EXPECT_EQ(f.sw.cells_wred_dropped_clp(), 1u);
  atm::Cell rm = rm_cell(kVcA);
  rm.header.clp = true;
  const std::size_t before = f.sw.queue_occupancy(1);
  f.sw.receive(0, wire(rm));
  EXPECT_EQ(f.sw.queue_occupancy(1), before + 1);
  EXPECT_EQ(f.sw.cells_dropped_clp(), 0u);
  EXPECT_EQ(f.sw.cells_wred_dropped(), 1u);  // still only the user cell
  f.expect_queue_books_balanced();
}

// --- closed loop at 4x overload -----------------------------------------

TEST(Congestion, ConvergesAtFourTimesOverloadWithSaturatedQueues) {
  // Bidirectional 4x overload: both directions saturate their output
  // pools, so every backward RM cell must cross a full pool. Without
  // the control reserve the feedback dies with the data and the loop
  // never closes; with it, both sources throttle.
  core::Testbed bed;
  auto& sw = bed.add_switch({.ports = 2,
                             .queue_cells = 64,
                             .clp_threshold = 64,
                             .port_rate = atm::raw_rate(38e6),
                             .efci_threshold = 16});
  core::StationConfig cfg;
  cfg.nic.congestion.enabled = true;
  cfg.name = "a";
  auto& a = bed.add_station(cfg);
  cfg.name = "b";
  auto& b = bed.add_station(cfg);
  bed.connect_to_switch(a, sw, 0);
  bed.connect_from_switch(sw, 1, b);
  bed.connect_to_switch(b, sw, 1);
  bed.connect_from_switch(sw, 0, a);
  sw.add_route(0, kVcA, 1, kVcA);
  sw.add_route(1, kVcA, 0, kVcA);
  a.nic().open_vc(kVcA, aal::AalType::kAal5);
  b.nic().open_vc(kVcA, aal::AalType::kAal5);
  std::size_t delivered_b = 0, delivered_a = 0;
  b.host().set_rx_handler(
      [&](aal::Bytes, const host::RxInfo&) { ++delivered_b; });
  a.host().set_rx_handler(
      [&](aal::Bytes, const host::RxInfo&) { ++delivered_a; });

  auto make_src = [&bed](core::Station& s, std::uint64_t seed) {
    return std::make_shared<net::SduSource>(
        bed.sim(),
        net::SduSource::Config{.mode = net::SduSource::Mode::kPoisson,
                               .sdu_bytes = 9180,
                               .count = 0,
                               .interval = sim::microseconds(250),
                               .seed = seed},
        [&s](aal::Bytes sdu) {
          return s.host().send(kVcA, aal::AalType::kAal5, std::move(sdu));
        });
  };
  auto src_a = make_src(a, 7);
  auto src_b = make_src(b, 11);
  src_a->start();
  src_b->start();
  bed.run_for(sim::milliseconds(30));

  // The pools really saturated...
  EXPECT_GT(sw.cells_dropped_overflow(), 0u);
  // ...yet RM cells crossed them and both sources throttled.
  EXPECT_GT(a.nic().rm_cells_received(), 0u);
  EXPECT_GT(b.nic().rm_cells_received(), 0u);
  EXPECT_LT(a.nic().vc_rate_factor(kVcA), 1.0);
  EXPECT_LT(b.nic().vc_rate_factor(kVcA), 1.0);
  EXPECT_GT(delivered_a, 0u);
  EXPECT_GT(delivered_b, 0u);

  src_a->stop();
  src_b->stop();
  bed.run_for(sim::milliseconds(150));
  auto auditor = bed.audit(/*include_hops=*/true);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// --- ERICA explicit-rate stamping ---------------------------------------

TEST(Erica, StampsBackwardRmWithGrantNearFairShare) {
  net::SwitchConfig cfg{.ports = 3, .queue_cells = 256,
                        .clp_threshold = 256};
  cfg.abr.enabled = true;
  sim::Simulator sim;
  net::Switch sw(sim, cfg);
  net::Link out0{sim, 0}, out2{sim, 0};
  sw.attach_output(0, out0);
  sw.attach_output(2, out2);
  std::vector<net::WireCell> back;  // cells leaving toward the source
  out0.set_sink([&](const net::WireCell& w) { back.push_back(w); });
  out2.set_sink([](const net::WireCell&) {});
  // Forward data 0 -> 2 and 1 -> 2 (both ABR); backward RM 2 -> 0.
  sw.add_route(0, kVcA, 2, kVcA, 1, /*abr=*/true);
  sw.add_route(1, kVcB, 2, kVcB, 1, /*abr=*/true);
  sw.add_route(2, kVcA, 0, kVcA);
  sw.add_route(2, kVcB, 1, kVcB);

  for (int i = 0; i < 20; ++i) {
    sw.receive(0, wire(raw_cell(kVcA)));
    sw.receive(1, wire(raw_cell(kVcB)));
  }
  const sim::Time window = net::kAbrInterval;
  sim.run_until(window + sim::microseconds(50));
  // This arrival closes the measurement window: the snapshot becomes
  // valid and stamping switches on.
  sw.receive(0, wire(raw_cell(kVcA)));

  // A backward RM born unlimited gets tightened to this switch's grant.
  sw.receive(2, wire(rm_cell(kVcA)));
  EXPECT_EQ(sw.rm_cells_er_stamped(), 1u);
  sim.run_until(window + sim::microseconds(100));
  ASSERT_EQ(back.size(), 1u);
  const std::uint32_t er = atm::rm_explicit_rate(back[0].bytes.data() + 5);
  ASSERT_NE(er, atm::kRmErUnlimited);
  // Two equal-rate ABR VCs on a ~353k cells/s port at 0.9 target: the
  // grant lands between the fair share (~159k) and the ABR capacity.
  const double port = cfg.port_rate.cells_per_second();
  EXPECT_GT(er, static_cast<std::uint32_t>(0.25 * port));
  EXPECT_LT(er, static_cast<std::uint32_t>(0.95 * port));

  // An RM already carrying a tighter ER than the grant is left alone.
  sw.receive(2, wire(rm_cell(kVcA, /*er=*/50'000)));
  EXPECT_EQ(sw.rm_cells_er_stamped(), 1u);
  sim.run_until(window + sim::microseconds(150));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(atm::rm_explicit_rate(back[1].bytes.data() + 5), 50'000u);

  core::InvariantAuditor auditor;
  auditor.audit_switch(sw, "sw");
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST(Erica, ClosedLoopConvergesAndShedsShaperOnRecovery) {
  // End to end: ERICA stamps the bottleneck's grant into backward RM
  // cells, the source's NIC jumps its shaper to the grant, and after
  // the overload ends the recovered VC sheds the shaper entirely.
  core::Testbed bed;
  net::SwitchConfig scfg{.ports = 2,
                         .queue_cells = 256,
                         .clp_threshold = 256,
                         .port_rate = atm::raw_rate(62e6),
                         .efci_threshold = 16};
  scfg.abr.enabled = true;
  auto& sw = bed.add_switch(scfg);
  core::StationConfig cfg;
  cfg.nic.congestion.enabled = true;
  cfg.nic.congestion.explicit_rate = true;
  cfg.name = "src";
  auto& a = bed.add_station(cfg);
  cfg.name = "sink";
  auto& b = bed.add_station(cfg);
  bed.connect_to_switch(a, sw, 0);
  bed.connect_from_switch(sw, 1, b);
  bed.connect_to_switch(b, sw, 1);
  bed.connect_from_switch(sw, 0, a);
  sw.add_route(0, kVcA, 1, kVcA, 1, /*abr=*/true);
  sw.add_route(1, kVcA, 0, kVcA);
  a.nic().open_vc(kVcA, aal::AalType::kAal5);
  b.nic().open_vc(kVcA, aal::AalType::kAal5);

  auto src = std::make_shared<net::SduSource>(
      bed.sim(),
      net::SduSource::Config{.mode = net::SduSource::Mode::kPoisson,
                             .sdu_bytes = 9180,
                             .count = 0,
                             .interval = sim::microseconds(400),
                             .seed = 7},
      [&a](aal::Bytes sdu) {
        return a.host().send(kVcA, aal::AalType::kAal5, std::move(sdu));
      });
  src->start();
  bed.run_for(sim::milliseconds(30));

  // The switch tightened RM cells and the source followed the grant —
  // somewhere around the bottleneck's share of the line, not at the
  // binary-feedback floor and not at full rate.
  EXPECT_GT(sw.rm_cells_er_stamped(), 0u);
  const double factor = a.nic().vc_rate_factor(kVcA);
  EXPECT_LT(factor, 0.9);
  EXPECT_GT(factor, 0.05);
  EXPECT_TRUE(a.nic().tx().vc_shaped(kVcA));

  // Quiet period: recovery walks the factor back to exactly 1.0 and
  // the best-effort VC's shaper is shed, not left pacing at ~line rate.
  src->stop();
  bed.run_for(sim::milliseconds(150));
  EXPECT_DOUBLE_EQ(a.nic().vc_rate_factor(kVcA), 1.0);
  EXPECT_FALSE(a.nic().tx().vc_shaped(kVcA));

  auto auditor = bed.audit(/*include_hops=*/true);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// --- congestion recovery ------------------------------------------------

TEST(Congestion, ReopenedVcRecoversOncePerPeriod) {
  // Regression: the recovery timer found its VC's congestion state by
  // label alone, so a timer armed before close_vc drove the record a
  // reopened VC was throttled into: two recovery chains, a step every
  // half period (recoveries 1 -> 2 -> 3 at +1.5 / +2.0 / +2.5 ms).
  core::Testbed bed;
  core::StationConfig cfg;
  cfg.nic.congestion.enabled = true;
  cfg.nic.congestion.decrease = 0.25;  // one RM: several recovery steps
  auto& a = bed.add_station(cfg);
  auto& b = bed.add_station(cfg);
  bed.connect(a, b);
  a.nic().open_vc(kVcA, aal::AalType::kAal5);
  b.nic().open_vc(kVcA, aal::AalType::kAal5);
  const sim::Time period = nic::kRecoveryPeriod;
  ASSERT_EQ(period, sim::milliseconds(1));
  const atm::Cell ci =
      rm_cell(kVcA, atm::kRmErUnlimited,
              atm::kRmFlagBackward | atm::kRmFlagCi);

  // Throttled within the first 50 us: its recovery timer is due at
  // about +1.0 ms.
  b.nic().tx().inject_cell(ci);
  bed.run_for(sim::microseconds(50));
  ASSERT_DOUBLE_EQ(a.nic().vc_rate_factor(kVcA), 0.25);

  // Closed and reopened at +0.5 ms, then throttled again: the only
  // recovery chain left is the new one, due at about +1.5, +2.5 ms.
  bed.run_for(sim::microseconds(450));
  a.nic().close_vc(kVcA);
  EXPECT_DOUBLE_EQ(a.nic().vc_rate_factor(kVcA), 1.0);
  a.nic().open_vc(kVcA, aal::AalType::kAal5);
  b.nic().tx().inject_cell(ci);
  bed.run_for(sim::microseconds(50));
  ASSERT_DOUBLE_EQ(a.nic().vc_rate_factor(kVcA), 0.25);
  EXPECT_EQ(a.nic().congestion_recoveries(), 0u);

  bed.run_for(period);  // +1.55 ms
  EXPECT_EQ(a.nic().congestion_recoveries(), 1u);
  bed.run_for(period / 2);  // +2.05 ms
  EXPECT_EQ(a.nic().congestion_recoveries(), 1u);
  bed.run_for(period / 2);  // +2.55 ms
  EXPECT_EQ(a.nic().congestion_recoveries(), 2u);
  EXPECT_DOUBLE_EQ(a.nic().vc_rate_factor(kVcA), 0.25 * 1.5 * 1.5);
}

TEST(Congestion, VcClosedWhileTheEngineHandlesRmIsNotThrottled) {
  // Regression: the RX engine ran an RM cell's handler one engine step
  // after its VC lookup, so an RM whose VC closed inside that step
  // still throttled the closed VC, and the reopened VC started slowed.
  core::Testbed bed;
  core::StationConfig cfg;
  cfg.nic.congestion.enabled = true;
  cfg.nic.congestion.decrease = 0.25;
  auto& a = bed.add_station(cfg);
  auto& b = bed.add_station(cfg);
  bed.connect(a, b);
  a.nic().open_vc(kVcA, aal::AalType::kAal5);
  b.nic().open_vc(kVcA, aal::AalType::kAal5);

  b.nic().tx().inject_cell(rm_cell(
      kVcA, atm::kRmErUnlimited, atm::kRmFlagBackward | atm::kRmFlagCi));
  // Step until a's RX engine has looked the cell up: its step runs.
  const std::uint64_t serviced = a.nic().rx().cells_serviced();
  while (a.nic().rx().cells_serviced() == serviced && bed.sim().step()) {
  }
  ASSERT_EQ(a.nic().rx().cells_serviced(), serviced + 1);
  ASSERT_EQ(a.nic().rm_cells_received(), 0u);
  const std::uint64_t no_vc = a.nic().rx().cells_no_vc();

  a.nic().close_vc(kVcA);
  bed.run_for(sim::microseconds(50));
  EXPECT_EQ(a.nic().rm_cells_received(), 0u);
  EXPECT_EQ(a.nic().congestion_throttle_events(), 0u);
  EXPECT_EQ(a.nic().rx().cells_no_vc(), no_vc + 1);
  a.nic().open_vc(kVcA, aal::AalType::kAal5);
  EXPECT_DOUBLE_EQ(a.nic().vc_rate_factor(kVcA), 1.0);
}

// --- TX shaper lifecycle ------------------------------------------------

TEST(TxShaper, FloatDirtyRecoveryFactorShedsShaper) {
  sim::Simulator sim;
  bus::Bus bus{sim, bus::BusConfig{}};
  bus::HostMemory mem{1u << 20, 4096};
  proc::FirmwareProfile fw{};
  nic::TxPath tx(sim, bus, mem, fw, {}, atm::sts3c());
  const atm::VcId vc{0, 7};

  EXPECT_FALSE(tx.vc_shaped(vc));
  tx.set_rate_factor(vc, 0.5);
  EXPECT_TRUE(tx.vc_shaped(vc));
  // An ER grant of (almost) the full line computes er/line just shy of
  // 1.0 in floating point; the snap must treat it as full recovery
  // instead of rebuilding a GCRA at ~line rate forever.
  tx.set_rate_factor(vc, 0.99999999999);
  EXPECT_FALSE(tx.vc_shaped(vc));
  EXPECT_DOUBLE_EQ(tx.rate_factor(vc), 1.0);
}

TEST(TxShaper, PostRecoveryEmissionRunsAtLineRate) {
  sim::Simulator sim;
  bus::Bus bus{sim, bus::BusConfig{}};
  bus::HostMemory mem{1u << 20, 4096};
  proc::FirmwareProfile fw{};
  const atm::LineRate line = atm::sts3c();
  nic::TxPath tx(sim, bus, mem, fw, {}, line);
  const atm::VcId vc{0, 7};
  std::vector<sim::Time> stamps;
  tx.framer().set_sink([&](const atm::Cell&) { stamps.push_back(sim.now()); });
  tx.start();

  auto post_pdu = [&] {
    const aal::Bytes sdu = aal::make_pattern(472, 3);  // 10 cells AAL5
    nic::TxDescriptor d;
    d.sg = mem.stage(sdu);
    d.len = sdu.size();
    d.vc = vc;
    d.aal = aal::AalType::kAal5;
    ASSERT_TRUE(tx.post(d));
  };

  // Throttled hard: ten cells crawl out at 1/64th of the line.
  tx.set_rate_factor(vc, 1.0 / 64);
  post_pdu();
  sim.run_until(sim::milliseconds(5));
  ASSERT_EQ(stamps.size(), 10u);
  const sim::Time slot = line.cell_slot();
  const sim::Time throttled_span = stamps.back() - stamps.front();
  EXPECT_GT(throttled_span, 400 * slot);  // nominal: 9 * 64 slots

  // Full recovery via a float-dirty ER ratio: the next PDU must drain
  // at line rate (the shaper is gone, not rebuilt at ~0.9999 line).
  tx.set_rate_factor(vc, 0.999999999999);
  stamps.clear();
  post_pdu();
  sim.run_until(sim::milliseconds(6));
  ASSERT_EQ(stamps.size(), 10u);
  const sim::Time recovered_span = stamps.back() - stamps.front();
  EXPECT_LE(recovered_span, 12 * slot);  // nominal: 9 slots
}

// --- signalling plumbing ------------------------------------------------

TEST(SigTraffic, DescriptorSurvivesTheWire) {
  sig::Message m;
  m.type = sig::MessageType::kSetup;
  m.call_id = 0x10002;
  m.calling_party = 1;
  m.called_party = 2;
  m.pcr_cells_per_second = 50'000.0;
  m.scr_cells_per_second = 20'000.0;
  m.weight = 3;
  m.abr = true;
  const auto decoded = sig::Message::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_DOUBLE_EQ(decoded->pcr_cells_per_second, 50'000.0);
  EXPECT_DOUBLE_EQ(decoded->scr_cells_per_second, 20'000.0);
  EXPECT_EQ(decoded->weight, 3);
  EXPECT_TRUE(decoded->abr);
}

TEST(SigTraffic, DecodeRejectsScrAbovePcr) {
  sig::Message m;
  m.pcr_cells_per_second = 10'000.0;
  m.scr_cells_per_second = 20'000.0;  // contradiction: SCR bounds PCR
  const auto r = sig::decode_checked(m.encode());
  EXPECT_FALSE(r.message.has_value());
  EXPECT_EQ(r.error, sig::Cause::kInvalidContents);
}

TEST(SigTraffic, VbrCallInstallsMeterAndCarriesDescriptorToCallee) {
  core::Testbed bed;
  auto& sw = bed.add_switch(
      {.ports = 3, .queue_cells = 512, .clp_threshold = 512});
  auto& alice = bed.add_station({.name = "alice"});
  auto& bob = bed.add_station({.name = "bob"});
  sig::SignalingNetwork net(bed, sw, /*agent_port=*/2);
  auto& cc_alice = net.attach(alice, 0, 1);
  auto& cc_bob = net.attach(bob, 1, 2);

  sig::CallControl::CallInfo callee_info;
  cc_bob.set_incoming([&](const sig::CallControl::CallInfo& info) {
    callee_info = info;
    return true;
  });
  bool connected = false;
  sig::CallControl::CallInfo caller_info;
  sig::TrafficDescriptor traffic;
  traffic.pcr_cells_per_second = 80'000.0;
  traffic.scr_cells_per_second = 30'000.0;
  traffic.weight = 3;
  traffic.abr = true;
  cc_alice.place_call(2, aal::AalType::kAal5, traffic,
                      [&](const sig::CallControl::CallInfo& info) {
                        connected = true;
                        caller_info = info;
                      });
  bed.run_for(sim::milliseconds(5));
  ASSERT_TRUE(connected);
  // The descriptor reached both ends intact.
  EXPECT_DOUBLE_EQ(caller_info.scr_cells_per_second, 30'000.0);
  EXPECT_DOUBLE_EQ(callee_info.scr_cells_per_second, 30'000.0);
  EXPECT_EQ(callee_info.weight, 3);
  EXPECT_TRUE(callee_info.abr);

  // And the network programmed a trTCM meter (not a GCRA policer) on
  // the data legs: the first burst is metered, the burst's excess over
  // the sustained rate tagged rather than dropped.
  alice.host().send(caller_info.vc, aal::AalType::kAal5,
                    aal::make_pattern(9180, 5));
  bed.run_for(sim::milliseconds(5));
  EXPECT_GT(sw.cells_metered(), 0u);
  EXPECT_EQ(sw.cells_metered(),
            sw.cells_meter_green() + sw.cells_meter_yellow() +
                sw.cells_meter_red());

  // An endpoint that breaks its contract: unshaped, the next PDU leaves
  // at line rate, past the peak rate too, so the meter spends all three
  // colours: green within SCR, yellow within PCR, red beyond it.
  alice.nic().tx().clear_shaper(caller_info.vc);
  alice.host().send(caller_info.vc, aal::AalType::kAal5,
                    aal::make_pattern(9180, 6));
  bed.run_for(sim::milliseconds(5));
  EXPECT_GT(sw.cells_meter_green(), 0u);
  EXPECT_GT(sw.cells_meter_yellow(), 0u);
  EXPECT_GT(sw.cells_meter_red(), 0u);
  auto auditor = bed.audit(/*include_hops=*/false);
  net.audit_invariants(auditor);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

}  // namespace
}  // namespace hni
