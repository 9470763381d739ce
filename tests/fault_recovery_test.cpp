// Targeted fault/recovery tests: each recovery path exercised by an
// explicit fault, with the invariant auditor confirming no resource
// escaped the books.
//
//   * DMA retry with exponential backoff (transient faults absorbed)
//   * DMA give-up after max_retries (PDU aborted, buffers reclaimed)
//   * RX/TX progress watchdogs (wedged engine abort-and-reclaim reset)
//   * link down -> AIS inserted downstream -> RDI echoed upstream ->
//     transmit VC paused; alarm clears and the VC resumes
//   * reassembly-timeout sweep returns every board container
//   * bus hold-off, DMA stall, board-pool squeeze: degrade, recover

#include <gtest/gtest.h>

#include "core/audit.hpp"
#include "core/testbed.hpp"

namespace hni {
namespace {

using aal::AalType;
using atm::VcId;

constexpr VcId kVc{0, 77};

struct Pair {
  core::Testbed bed;
  core::Station* a = nullptr;
  core::Station* b = nullptr;
  net::Link* ab = nullptr;
  net::Link* ba = nullptr;
  std::uint64_t received = 0;
  std::uint64_t bad = 0;

  explicit Pair(core::StationConfig sc = {}) {
    a = &bed.add_station(sc);
    b = &bed.add_station(sc);
    auto links = bed.connect(*a, *b);
    ab = links.first;
    ba = links.second;
    a->nic().open_vc(kVc, AalType::kAal5);
    b->nic().open_vc(kVc, AalType::kAal5);
    b->host().set_rx_handler([this](aal::Bytes sdu, const host::RxInfo&) {
      ++received;
      if (!aal::verify_pattern(sdu)) ++bad;
    });
  }

  void expect_books_balance() {
    auto audit = bed.audit();
    EXPECT_TRUE(audit.ok()) << audit.report();
  }
};

TEST(DmaRetry, TransientFaultsAbsorbedByBackoff) {
  Pair p;
  p.a->nic().tx().dma().fail_next(2);  // < max_retries: must recover
  p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(4000, 1));
  p.bed.run_for(sim::milliseconds(10));

  EXPECT_EQ(p.received, 1u);
  EXPECT_EQ(p.bad, 0u);
  EXPECT_EQ(p.a->nic().tx().dma().retries(), 2u);
  EXPECT_EQ(p.a->nic().tx().dma().gave_up(), 0u);
  EXPECT_EQ(p.a->nic().tx().pdus_aborted(), 0u);
  p.expect_books_balance();
}

TEST(DmaRetry, BackoffGrowsExponentially) {
  // With backoff b and max_retries 4, a persistent fault costs
  // b + 2b + 4b + 8b = 15b of backoff before the give-up.
  core::StationConfig sc;
  sc.nic.tx.dma.retry_backoff = sim::microseconds(100);
  Pair p(sc);
  p.a->nic().tx().dma().fail_next(1000);
  p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(400, 1));

  // 1 ms in: only the early attempts have happened (the summed backoff
  // 100+200+400+800 us = 1.5 ms is still running), so no give-up yet.
  p.bed.run_for(sim::milliseconds(1));
  EXPECT_EQ(p.a->nic().tx().dma().gave_up(), 0u);

  // Past the full backoff span the engine has given up.
  p.bed.run_for(sim::milliseconds(19));
  EXPECT_EQ(p.a->nic().tx().dma().gave_up(), 1u);
  EXPECT_EQ(p.a->nic().tx().dma().retries(), 4u);
  EXPECT_EQ(p.a->nic().tx().pdus_aborted(), 1u);
  EXPECT_EQ(p.received, 0u);
  p.expect_books_balance();
}

TEST(DmaRetry, GiveUpAbortsTxPduAndCompletesDescriptor) {
  Pair p;
  // Exactly the first attempt plus all 4 retries fail: the engine must
  // give up, and the fault is then fully consumed.
  p.a->nic().tx().dma().fail_next(5);
  p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(4000, 1));
  p.bed.run_for(sim::milliseconds(10));

  EXPECT_EQ(p.received, 0u);
  EXPECT_EQ(p.a->nic().tx().dma().gave_up(), 1u);
  EXPECT_EQ(p.a->nic().tx().pdus_aborted(), 1u);

  // The completion fired (descriptor reclaimed): the host can send
  // again and the path still works once the fault clears.
  p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(4000, 2));
  p.bed.run_for(sim::milliseconds(10));
  EXPECT_EQ(p.received, 1u);
  EXPECT_EQ(p.bad, 0u);
  p.expect_books_balance();
}

TEST(DmaRetry, RxLandingGiveUpReturnsHostBuffers) {
  Pair p;
  p.b->nic().rx().dma().fail_next(5);  // first attempt + all retries
  p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(4000, 1));
  p.bed.run_for(sim::milliseconds(10));

  EXPECT_EQ(p.received, 0u);
  EXPECT_EQ(p.b->nic().rx().pdus_dropped_dma(), 1u);
  EXPECT_EQ(p.b->nic().rx().dma().gave_up(), 1u);
  // Every page the give-up drew was posted again, not one leaked.
  const std::size_t posted = host::HostConfig{}.rx_posted_pages;
  EXPECT_EQ(p.b->nic().rx().rx_pages_posted(), posted);

  // The posted-buffer budget was replenished: later traffic lands.
  p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(4000, 2));
  p.bed.run_for(sim::milliseconds(10));
  EXPECT_EQ(p.received, 1u);
  EXPECT_EQ(p.b->nic().rx().rx_pages_posted(), posted);
  p.expect_books_balance();
}

TEST(DmaRetry, DisabledRetriesGiveUpImmediately) {
  core::StationConfig sc;
  sc.nic.tx.dma.max_retries = 0;  // recovery off
  Pair p(sc);
  p.a->nic().tx().dma().fail_next(1);
  p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(1000, 1));
  p.bed.run_for(sim::milliseconds(10));

  EXPECT_EQ(p.a->nic().tx().dma().retries(), 0u);
  EXPECT_EQ(p.a->nic().tx().dma().gave_up(), 1u);
  EXPECT_EQ(p.received, 0u);
  p.expect_books_balance();
}

TEST(Watchdog, RxResetReclaimsWedgedEngine) {
  Pair p;
  p.b->nic().rx().wedge_engine();
  for (int i = 0; i < 4; ++i) {
    p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(4000, i + 1));
  }
  // Two watchdog samples (10 ms interval) must detect the stall.
  p.bed.run_for(sim::milliseconds(40));

  EXPECT_GE(p.b->nic().rx().watchdog_resets(), 1u);
  // The reset flushed the FIFO and/or aborted partial PDUs...
  EXPECT_GT(p.b->nic().rx().cells_flushed() +
                p.b->nic().rx().pdus_aborted(),
            0u);
  // ...and every board container came back.
  EXPECT_EQ(p.b->nic().rx().board().containers_in_use(), 0u);

  // Post-reset the path is alive again.
  const std::uint64_t before = p.received;
  p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(4000, 99));
  p.bed.run_for(sim::milliseconds(20));
  EXPECT_EQ(p.received, before + 1);
  EXPECT_EQ(p.bad, 0u);
  p.expect_books_balance();
}

TEST(Watchdog, TxResetClearsWedgedEngine) {
  Pair p;
  p.a->nic().tx().wedge_engine();
  p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(4000, 1));
  p.bed.run_for(sim::milliseconds(40));

  EXPECT_GE(p.a->nic().tx().watchdog_resets(), 1u);
  EXPECT_EQ(p.received, 1u);  // recovered and delivered
  EXPECT_EQ(p.bad, 0u);
  p.expect_books_balance();
}

TEST(Watchdog, QuietInterfaceNeverFires) {
  Pair p;
  for (int i = 0; i < 8; ++i) {
    p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(9180, i + 1));
  }
  p.bed.run_for(sim::milliseconds(100));
  EXPECT_EQ(p.received, 8u);
  EXPECT_EQ(p.a->nic().tx().watchdog_resets(), 0u);
  EXPECT_EQ(p.b->nic().rx().watchdog_resets(), 0u);
  p.expect_books_balance();
}

TEST(Alarms, LinkDownEmitsAisDownstreamAndRdiUpstream) {
  Pair p;
  p.ab->set_down(true);
  p.bed.run_for(sim::milliseconds(5));

  // Downstream NIC (b) detected loss of signal and substituted AIS
  // cells into its receive stream.
  EXPECT_TRUE(p.b->nic().los());
  EXPECT_EQ(p.b->nic().los_events(), 1u);
  EXPECT_GT(p.b->nic().ais_inserted(), 0u);
  EXPECT_GT(p.b->nic().ais_received(), 0u);

  // It echoed RDI upstream on the healthy reverse link; the upstream
  // NIC (a) received the defect indication and paused the VC.
  EXPECT_GT(p.b->nic().rdi_sent(), 0u);
  EXPECT_GT(p.a->nic().rdi_received(), 0u);
  EXPECT_TRUE(p.a->nic().tx().vc_paused(kVc));

  // Posts into the paused VC are shed with accounting, not queued.
  p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(4000, 1));
  p.bed.run_for(sim::milliseconds(2));
  EXPECT_GE(p.a->nic().tx().pdus_dropped_paused(), 1u);
  EXPECT_EQ(p.received, 0u);

  // Repair the link: AIS stops, the RDI hold expires, the VC resumes
  // and traffic flows again.
  p.ab->set_down(false);
  p.bed.run_for(sim::milliseconds(10));  // > nic::kRdiHold
  EXPECT_FALSE(p.b->nic().los());
  EXPECT_FALSE(p.a->nic().tx().vc_paused(kVc));

  p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(4000, 2));
  p.bed.run_for(sim::milliseconds(10));
  EXPECT_EQ(p.received, 1u);
  EXPECT_EQ(p.bad, 0u);
  p.expect_books_balance();
}

TEST(Alarms, AisInsertionDisabledMeansNoReaction) {
  core::StationConfig sc;
  sc.nic.ais_period = 0;  // alarm recovery off
  Pair p(sc);
  p.ab->set_down(true);
  p.bed.run_for(sim::milliseconds(5));

  EXPECT_TRUE(p.b->nic().los());
  EXPECT_EQ(p.b->nic().ais_inserted(), 0u);
  EXPECT_EQ(p.a->nic().rdi_received(), 0u);
  EXPECT_FALSE(p.a->nic().tx().vc_paused(kVc));
  p.expect_books_balance();
}

TEST(Sweep, ReassemblyTimeoutReturnsAllContainers) {
  Pair p;
  // Hand the receiver every cell of a PDU except the last: reassembly
  // sits mid-PDU holding board containers.
  aal::FrameSegmenter seg(AalType::kAal5, kVc);
  const auto cells = seg.segment(aal::make_pattern(9180, 7), false);
  ASSERT_GT(cells.size(), 2u);
  for (std::size_t i = 0; i + 1 < cells.size(); ++i) {
    net::WireCell w;
    w.bytes = cells[i].serialize(atm::HeaderFormat::kUni);
    w.meta = cells[i].meta;
    p.b->nic().rx().receive_wire(w);
  }
  p.bed.run_for(sim::milliseconds(5));
  EXPECT_GT(p.b->nic().rx().board().containers_in_use(), 0u);

  // Past the reassembly timeout the sweep abandons the PDU and the
  // pool books balance again: allocated == released, nothing in use.
  p.bed.run_for(sim::milliseconds(120));
  EXPECT_GE(p.b->nic().rx().pdus_timed_out(), 1u);
  EXPECT_EQ(p.b->nic().rx().board().containers_in_use(), 0u);
  EXPECT_EQ(p.b->nic().rx().board().allocated(),
            p.b->nic().rx().board().released());

  // The stream restarts cleanly on the next full PDU.
  p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(4000, 8));
  p.bed.run_for(sim::milliseconds(10));
  EXPECT_EQ(p.received, 1u);
  EXPECT_EQ(p.bad, 0u);
  p.expect_books_balance();
}

TEST(Degrade, BusHoldOffDelaysButLosesNothing) {
  Pair p;
  p.a->bus().hold_off(sim::microseconds(500));
  p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(9180, 1));
  p.bed.run_for(sim::milliseconds(20));
  EXPECT_EQ(p.received, 1u);
  EXPECT_EQ(p.bad, 0u);
  EXPECT_GE(p.a->bus().holdoffs(), 1u);
  p.expect_books_balance();
}

TEST(Degrade, DmaStallDelaysButLosesNothing) {
  Pair p;
  p.a->nic().tx().dma().stall(sim::microseconds(800));
  p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(9180, 1));
  p.bed.run_for(sim::milliseconds(20));
  EXPECT_EQ(p.received, 1u);
  EXPECT_EQ(p.a->nic().tx().dma().stalls(), 1u);
  p.expect_books_balance();
}

TEST(Degrade, BoardSqueezeDropsThenRecovers) {
  Pair p;
  p.b->nic().rx().board_memory().set_capacity_limit(1);
  p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(9180, 1));
  p.bed.run_for(sim::milliseconds(10));
  EXPECT_EQ(p.received, 0u);
  EXPECT_GE(p.b->nic().rx().pdus_dropped_board(), 1u);

  p.b->nic().rx().board_memory().clear_capacity_limit();
  p.a->host().send(kVc, AalType::kAal5, aal::make_pattern(9180, 2));
  p.bed.run_for(sim::milliseconds(10));
  EXPECT_EQ(p.received, 1u);
  EXPECT_EQ(p.bad, 0u);
  p.expect_books_balance();
}

}  // namespace
}  // namespace hni
