// OAM fault-management tests: cell codec, CRC-10 protection, loopback
// round-trips through the full testbed, control-cell priority, and the
// receive-buffer budget the host posts to the RX path.

#include <gtest/gtest.h>

#include "atm/oam.hpp"
#include "core/audit.hpp"
#include "core/testbed.hpp"

namespace hni {
namespace {

const atm::VcId kVc{0, 70};

TEST(OamCell, CodecRoundtrip) {
  atm::OamCell oam;
  oam.function = atm::OamFunction::kLoopbackRequest;
  oam.tag = 0xDEADBEEFCAFE1234ull;
  oam.end_to_end = true;
  const atm::Cell cell = oam.to_cell(kVc);
  EXPECT_EQ(cell.header.pti, atm::Pti::kOamEndToEnd);
  EXPECT_EQ(cell.header.vc, kVc);

  const auto back = atm::OamCell::parse(cell);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->function, oam.function);
  EXPECT_EQ(back->tag, oam.tag);
  EXPECT_TRUE(back->end_to_end);
}

TEST(OamCell, SegmentScopeUsesSegmentPti) {
  atm::OamCell oam;
  oam.end_to_end = false;
  const atm::Cell cell = oam.to_cell(kVc);
  EXPECT_EQ(cell.header.pti, atm::Pti::kOamSegment);
  const auto back = atm::OamCell::parse(cell);
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->end_to_end);
}

TEST(OamCell, UserDataCellsDoNotParse) {
  atm::Cell cell;
  cell.header.pti = atm::Pti::kUserData0;
  EXPECT_FALSE(atm::OamCell::parse(cell).has_value());
}

TEST(OamCell, CorruptedPayloadRejectedByCrc10) {
  atm::OamCell oam;
  oam.tag = 42;
  atm::Cell cell = oam.to_cell(kVc);
  for (std::size_t byte : {0u, 5u, 20u, 47u}) {
    atm::Cell damaged = cell;
    damaged.payload[byte] ^= 0x40;
    EXPECT_FALSE(atm::OamCell::parse(damaged).has_value()) << byte;
  }
}

TEST(Loopback, RoundTripAcrossTestbed) {
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b, {}, sim::microseconds(50));
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);

  std::uint64_t got_tag = 0;
  sim::Time rtt = 0;
  a.nic().set_loopback_handler(
      [&](atm::VcId vc, std::uint64_t tag, sim::Time t) {
        EXPECT_EQ(vc, kVc);
        got_tag = tag;
        rtt = t;
      });
  a.nic().send_loopback(kVc, 77);
  bed.run_for(sim::milliseconds(5));

  EXPECT_EQ(got_tag, 77u);
  EXPECT_EQ(a.nic().loopbacks_sent(), 1u);
  EXPECT_EQ(a.nic().loopbacks_completed(), 1u);
  EXPECT_EQ(b.nic().loopbacks_answered(), 1u);
  // RTT at least two propagation delays, plus slots and engine work.
  EXPECT_GE(rtt, sim::microseconds(100));
  EXPECT_LE(rtt, sim::microseconds(150));
}

TEST(Loopback, CloseVcSweepsOutstandingRequests) {
  // Regression: outstanding loopbacks were keyed by tag alone, so a
  // closing VC could not find its pending requests — they sat in the
  // table forever and the books never balanced. close_vc now abandons
  // them, and a reply arriving after the close is ignored.
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b, {}, sim::microseconds(50));
  const atm::VcId other{0, 71};
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  a.nic().open_vc(other, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(other, aal::AalType::kAal5);

  std::size_t completions = 0;
  a.nic().set_loopback_handler(
      [&](atm::VcId, std::uint64_t, sim::Time) { ++completions; });
  a.nic().send_loopback(kVc, 1);
  a.nic().send_loopback(kVc, 2);
  a.nic().send_loopback(other, 3);
  EXPECT_EQ(a.nic().loopbacks_outstanding(), 3u);

  // Close before any reply can make the ~100us round trip: only the
  // closing VC's requests are abandoned, the other VC's completes.
  a.nic().close_vc(kVc);
  EXPECT_EQ(a.nic().loopbacks_abandoned(), 2u);
  EXPECT_EQ(a.nic().loopbacks_outstanding(), 1u);
  bed.run_for(sim::milliseconds(5));

  EXPECT_EQ(completions, 1u);  // late replies for tags 1 and 2 ignored
  EXPECT_EQ(a.nic().loopbacks_completed(), 1u);
  EXPECT_EQ(a.nic().loopbacks_outstanding(), 0u);

  // The conservation identity the auditor now enforces:
  // sent == completed + abandoned + outstanding.
  core::InvariantAuditor auditor;
  auditor.audit_station(a);
  auditor.audit_station(b);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST(Rdi, CloseVcClearsStandingPause) {
  // Regression: a VC closed while RDI-paused left its hold entry and a
  // frozen TX lane behind; reopening the VC started life paused.
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b, {}, sim::microseconds(50));
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);

  // The far end reports a remote defect on the VC.
  atm::OamCell rdi;
  rdi.function = atm::OamFunction::kRdi;
  b.nic().tx().inject_cell(rdi.to_cell(kVc));
  bed.run_for(sim::milliseconds(1));
  ASSERT_EQ(a.nic().rdi_received(), 1u);
  ASSERT_TRUE(a.nic().tx().vc_paused(kVc));
  EXPECT_EQ(a.nic().rdi_pending(), 1u);

  a.nic().close_vc(kVc);
  EXPECT_EQ(a.nic().rdi_pending(), 0u);
  EXPECT_FALSE(a.nic().tx().vc_paused(kVc));

  // The rdi_pending <= open VCs bound the auditor checks.
  core::InvariantAuditor auditor;
  auditor.audit_station(a);
  EXPECT_TRUE(auditor.ok()) << auditor.report();

  // The stale hold timer that fires later must not resurrect the pause.
  bed.run_for(nic::kRdiHold + sim::milliseconds(3));
  EXPECT_FALSE(a.nic().tx().vc_paused(kVc));
}

TEST(Rdi, VcClosedWhileTheEngineHandlesTheCellTakesNoPause) {
  // Regression: the RX engine ran an OAM cell's handler one engine step
  // after its VC lookup, so an RDI whose VC closed inside that step
  // still paused the closed VC and left rdi_pending above the open VC
  // count.
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b);
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);

  atm::OamCell rdi;
  rdi.function = atm::OamFunction::kRdi;
  b.nic().tx().inject_cell(rdi.to_cell(kVc));
  // Step until a's RX engine has looked the cell up: its step runs.
  const std::uint64_t serviced = a.nic().rx().cells_serviced();
  while (a.nic().rx().cells_serviced() == serviced && bed.sim().step()) {
  }
  ASSERT_EQ(a.nic().rx().cells_serviced(), serviced + 1);
  ASSERT_EQ(a.nic().rdi_received(), 0u);
  const std::uint64_t no_vc = a.nic().rx().cells_no_vc();

  a.nic().close_vc(kVc);
  bed.run_for(sim::milliseconds(1));
  EXPECT_EQ(a.nic().rdi_received(), 0u);
  EXPECT_EQ(a.nic().rdi_pending(), 0u);
  EXPECT_FALSE(a.nic().tx().vc_paused(kVc));
  EXPECT_EQ(a.nic().rx().cells_no_vc(), no_vc + 1);
  auto auditor = bed.audit(/*include_hops=*/true);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST(ContinuityCheck, ReopenedOrRestartedVcRunsOneHeartbeat) {
  // Regression: a heartbeat timer found its VC's CC state by label
  // alone, and a fresh record restarted the epoch the timers were
  // checked against, so the chains a close + reopen or a stop + start
  // left behind matched the new record and kept sending: 2 ms carried
  // 20 and then 30 heartbeats instead of 10.
  core::Testbed bed;
  core::StationConfig cfg;
  cfg.nic.cc.enabled = true;
  auto& a = bed.add_station(cfg);
  auto& b = bed.add_station(cfg);
  bed.connect(a, b, {}, sim::microseconds(50));
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);
  ASSERT_EQ(nic::kCcPeriod, sim::microseconds(200));

  // Windows of 2 ms placed off every chain's tick phase, so each live
  // chain contributes exactly ten heartbeats.
  auto heartbeats_in_2ms = [&] {
    bed.run_for(sim::microseconds(50));
    const std::uint64_t before = a.nic().cc_cells_sent();
    bed.run_for(sim::milliseconds(2));
    return a.nic().cc_cells_sent() - before;
  };
  a.nic().start_cc(kVc);
  EXPECT_EQ(heartbeats_in_2ms(), 10u);

  bed.run_for(sim::microseconds(50));
  a.nic().close_vc(kVc);
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  a.nic().start_cc(kVc);
  EXPECT_EQ(heartbeats_in_2ms(), 10u);

  bed.run_for(sim::microseconds(50));
  a.nic().stop_cc(kVc);
  a.nic().start_cc(kVc);
  EXPECT_EQ(heartbeats_in_2ms(), 10u);
  EXPECT_EQ(a.nic().cc_monitored(), 1u);

  core::InvariantAuditor auditor;
  auditor.audit_station(a);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST(Alarms, VcOpenedTwiceGetsOneAisPerPeriod) {
  // Regression: the NIC kept its own list of open VCs beside the RX
  // path's table, one entry per open_vc call, so a VC opened twice
  // counted twice and drew two AIS cells per period under loss of
  // signal.
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  auto [ab, ba] = bed.connect(a, b, {}, sim::microseconds(50));
  b.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  EXPECT_EQ(b.nic().open_vc_count(), 1u);

  // AIS goes in when the signal drops and every ais_period after.
  ASSERT_EQ(b.nic().config().ais_period, sim::microseconds(500));
  ab->set_down(true);
  bed.run_for(sim::microseconds(2100));
  EXPECT_TRUE(b.nic().los());
  EXPECT_EQ(b.nic().ais_inserted(), 5u);
  EXPECT_EQ(b.nic().ais_received(), 5u);

  core::InvariantAuditor auditor;
  auditor.audit_station(b);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST(Loopback, WorksWhileUserDataFlows) {
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b);
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);

  std::size_t sdus = 0;
  b.host().set_rx_handler([&](aal::Bytes s, const host::RxInfo&) {
    EXPECT_TRUE(aal::verify_pattern(s));
    ++sdus;
  });
  std::size_t pings = 0;
  a.nic().set_loopback_handler(
      [&](atm::VcId, std::uint64_t, sim::Time) { ++pings; });

  // Interleave pings with a bulk transfer on the same VC.
  a.host().send(kVc, aal::AalType::kAal5, aal::make_pattern(30000, 1));
  for (std::uint64_t i = 0; i < 5; ++i) {
    bed.sim().after(sim::microseconds(200) * static_cast<std::int64_t>(i),
                    [&, i] { a.nic().send_loopback(kVc, i); });
  }
  bed.run_for(sim::milliseconds(20));

  EXPECT_EQ(sdus, 1u);   // the PDU still reassembles despite OAM cells
  EXPECT_EQ(pings, 5u);  // all loopbacks completed
  EXPECT_EQ(b.nic().rx().oam_cells_received(), 5u);
}

TEST(Loopback, ControlCellsPreemptBulkEmission) {
  // A loopback issued mid-bulk-transfer must leave (and return) long
  // before the transfer finishes: control cells skip the user queue.
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b);
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);

  sim::Time rtt = 0;
  a.nic().set_loopback_handler(
      [&](atm::VcId, std::uint64_t, sim::Time t) { rtt = t; });
  a.host().send(kVc, aal::AalType::kAal5, aal::make_pattern(65535, 1));
  bed.sim().after(sim::milliseconds(1),
                  [&] { a.nic().send_loopback(kVc, 1); });
  bed.run_for(sim::milliseconds(10));

  ASSERT_GT(rtt, 0);
  // The bulk transfer needs ~3.9 ms of wire; the ping returns in tens
  // of microseconds.
  EXPECT_LT(rtt, sim::microseconds(100));
}

TEST(RxBufferBudget, StarvationDropsAndRecovers) {
  core::Testbed bed;
  core::StationConfig rx_cfg;
  rx_cfg.host.rx_posted_pages = 2;  // tiny: one 8 kB PDU eats both pages
  // Slow host CPU: deliveries pile up before the budget replenishes.
  rx_cfg.host.cpu.clock_hz = 1e5;
  auto& a = bed.add_station({});
  auto& b = bed.add_station(rx_cfg);
  bed.connect(a, b);
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);
  std::size_t got = 0;
  b.host().set_rx_handler([&](aal::Bytes, const host::RxInfo&) { ++got; });

  for (int i = 0; i < 6; ++i) {
    a.host().send(kVc, aal::AalType::kAal5, aal::make_pattern(8000, i));
  }
  bed.run_for(sim::milliseconds(100));

  EXPECT_GT(b.nic().rx().pdus_dropped_host_buffers(), 0u);
  EXPECT_GT(got, 0u);  // budget replenishes; later PDUs land
  EXPECT_EQ(b.nic().rx().rx_pages_posted(), 2u);  // conserved at rest
}

TEST(RxBufferBudget, AmplePostingNeverStarves) {
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b);
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);
  std::size_t got = 0;
  b.host().set_rx_handler([&](aal::Bytes, const host::RxInfo&) { ++got; });
  for (int i = 0; i < 6; ++i) {
    a.host().send(kVc, aal::AalType::kAal5, aal::make_pattern(8000, i));
  }
  bed.run_for(sim::milliseconds(50));
  EXPECT_EQ(got, 6u);
  EXPECT_EQ(b.nic().rx().pdus_dropped_host_buffers(), 0u);
}

}  // namespace
}  // namespace hni
