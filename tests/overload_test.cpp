// Overload-control plane tests: color-aware WRED discard (UPC's kTag
// verdict made consequential), EFCI congestion marking observed end to
// end, the closed EFCI -> RM -> throttle -> recover loop, per-VC
// round-robin service, and the queue-stage conservation identity.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/testbed.hpp"
#include "net/traffic.hpp"

namespace hni {
namespace {

const atm::VcId kVcA{0, 10};
const atm::VcId kVcB{0, 20};

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

// Two inputs, one output, forwarded headers captured.
struct SwitchFixture {
  sim::Simulator sim;
  net::Switch sw;
  net::Link out{sim, 0};
  std::vector<atm::CellHeader> forwarded;

  explicit SwitchFixture(net::SwitchConfig cfg) : sw(sim, cfg) {
    sw.add_route(0, kVcA, 2, kVcA);
    sw.add_route(1, kVcB, 2, kVcB);
    sw.attach_output(2, out);
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

net::SwitchConfig wred_config() {
  net::SwitchConfig cfg{.ports = 3, .queue_cells = 64, .clp_threshold = 64};
  cfg.wred.enabled = true;
  cfg.wred.min_cells = 40;     // untagged band: engages only when deep
  cfg.wred.max_cells = 64;
  cfg.wred.max_p = 0.1;
  cfg.wred.clp1_min_cells = 4;  // tagged band: sheds early and hard
  cfg.wred.clp1_max_cells = 10;
  cfg.wred.clp1_max_p = 1.0;
  return cfg;
}

TEST(Wred, TaggedCellsDiscardedBeforeUntagged) {
  SwitchFixture f(wred_config());
  // Hold the pool at ~11 cells: inside the tagged band's certain-drop
  // region, below the untagged band entirely.
  for (int i = 0; i < 12; ++i) f.sw.receive(0, wire(raw_cell(kVcA)));
  const std::size_t occupancy = f.sw.queue_occupancy(2);
  ASSERT_GE(occupancy, 10u);

  for (int i = 0; i < 8; ++i) {
    f.sw.receive(1, wire(raw_cell(kVcB, /*clp=*/true)));   // dies
    f.sw.receive(0, wire(raw_cell(kVcA, /*clp=*/false)));  // survives
  }
  EXPECT_EQ(f.sw.cells_wred_dropped(), 8u);
  EXPECT_EQ(f.sw.cells_wred_dropped_clp(), 8u);  // every loss was tagged
  f.expect_queue_books_balanced();  // mid-flight: identity still holds

  f.sim.run_until(sim::milliseconds(1));
  // Everything untagged came through.
  EXPECT_EQ(f.forwarded.size(), 20u);
  f.expect_queue_books_balanced();
}

TEST(Wred, UpcTagVerdictIsConsequential) {
  // A policer tags the violator instead of dropping it; the tagged
  // cells then absorb the early WRED losses downstream. This closes the
  // loop that made kTag a dead end before the per-VC queue stage.
  SwitchFixture f(wred_config());
  f.sw.add_policer(1, kVcB, /*pcr=*/1000.0, /*cdvt=*/0,
                   net::Switch::PoliceAction::kTag);
  // Pool held above the tagged band by conforming traffic.
  for (int i = 0; i < 14; ++i) f.sw.receive(0, wire(raw_cell(kVcA)));
  ASSERT_GE(f.sw.queue_occupancy(2), 10u);

  // A back-to-back burst on the policed VC: the first cell conforms,
  // the rest are tagged (1000 cells/s allows ~1 per ms).
  for (int i = 0; i < 10; ++i) f.sw.receive(1, wire(raw_cell(kVcB)));
  EXPECT_EQ(f.sw.cells_policed_tagged(), 9u);
  // Tagged discards reconcile with the tag verdicts: every WRED CLP
  // loss is a cell UPC tagged (nothing else sets CLP here).
  EXPECT_EQ(f.sw.cells_wred_dropped_clp(), 9u);
  EXPECT_LE(f.sw.cells_wred_dropped_clp(), f.sw.cells_policed_tagged());

  f.sim.run_until(sim::milliseconds(1));
  // The conforming cell (and all of VC A) still got through.
  EXPECT_EQ(f.forwarded.size(), 15u);
  f.expect_queue_books_balanced();
}

TEST(Efci, MarksSurvivorsPastThresholdAndTraces) {
  net::SwitchConfig cfg{.ports = 3, .queue_cells = 64, .clp_threshold = 64};
  cfg.efci_threshold = 4;
  SwitchFixture f(cfg);
  sim::Tracer tracer;
  std::vector<sim::TraceEvent> events;
  tracer.collect_into(events);
  f.sw.set_tracer(&tracer, "sw");

  for (int i = 0; i < 10; ++i) f.sw.receive(0, wire(raw_cell(kVcA)));
  f.sim.run_until(sim::milliseconds(1));

  // The first burst cell is served instantly, so occupancies seen at
  // the EFCI check are 0,0,1,2,3,4,... -> cells 6..10 are marked.
  ASSERT_EQ(f.forwarded.size(), 10u);
  EXPECT_EQ(f.sw.cells_efci_marked(), 5u);
  std::size_t marked = 0;
  for (const auto& h : f.forwarded) {
    if (atm::pti_efci(h.pti)) ++marked;
  }
  EXPECT_EQ(marked, 5u);
  // The typed trace event fired once per mark, naming the output port.
  std::size_t traced = 0;
  for (const auto& ev : events) {
    if (ev.id == sim::TraceEventId::kSwitchEfciMark) {
      EXPECT_EQ(ev.a, 2u);
      ++traced;
    }
  }
  EXPECT_EQ(traced, 5u);
  f.expect_queue_books_balanced();
}

TEST(Scheduler, RoundRobinPreventsHeadOfLineCapture) {
  auto run = [](net::SwitchScheduler sched) {
    net::SwitchConfig cfg{.ports = 3, .queue_cells = 64,
                          .clp_threshold = 64};
    cfg.scheduler = sched;
    SwitchFixture f(cfg);
    for (int i = 0; i < 20; ++i) f.sw.receive(0, wire(raw_cell(kVcA)));
    for (int i = 0; i < 20; ++i) f.sw.receive(1, wire(raw_cell(kVcB)));
    f.sim.run_until(sim::milliseconds(1));
    EXPECT_EQ(f.forwarded.size(), 40u);
    // Count VC B cells among the first 11 served (the burst head).
    std::size_t b_early = 0;
    for (std::size_t i = 0; i < 11 && i < f.forwarded.size(); ++i) {
      if (f.forwarded[i].vc == kVcB) ++b_early;
    }
    f.expect_queue_books_balanced();
    return b_early;
  };
  // FIFO: VC A's 20-cell burst monopolizes the head of the line.
  EXPECT_EQ(run(net::SwitchScheduler::kFifo), 0u);
  // Round-robin: B gets every other slot despite arriving second.
  EXPECT_GE(run(net::SwitchScheduler::kRoundRobin), 4u);
}

TEST(Congestion, ClosedLoopThrottlesThenRecovers) {
  core::Testbed bed;
  // The bottleneck: the switch serves at ~40% of the endpoints' line
  // rate, so a greedy source must overrun it without feedback.
  auto& sw = bed.add_switch({.ports = 2,
                             .queue_cells = 256,
                             .clp_threshold = 256,
                             .port_rate = atm::raw_rate(62e6),
                             .efci_threshold = 16});
  core::StationConfig cfg;
  cfg.nic.congestion.enabled = true;
  cfg.name = "src";
  auto& a = bed.add_station(cfg);
  cfg.name = "sink";
  auto& b = bed.add_station(cfg);
  // Full duplex both ways: the forward path carries data, the reverse
  // path carries the sink's backward RM cells.
  bed.connect_to_switch(a, sw, 0);
  bed.connect_from_switch(sw, 1, b);
  bed.connect_to_switch(b, sw, 1);
  bed.connect_from_switch(sw, 0, a);
  sw.add_route(0, kVcA, 1, kVcA);
  sw.add_route(1, kVcA, 0, kVcA);
  a.nic().open_vc(kVcA, aal::AalType::kAal5);
  b.nic().open_vc(kVcA, aal::AalType::kAal5);
  std::size_t delivered = 0;
  b.host().set_rx_handler(
      [&](aal::Bytes, const host::RxInfo&) { ++delivered; });

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

  // The loop closed: marks observed at the sink, RM cells sent back,
  // and the source throttled.
  EXPECT_GT(sw.cells_efci_marked(), 0u);
  EXPECT_GT(b.nic().rx().cells_efci_marked(), 0u);
  EXPECT_GT(b.nic().rm_cells_sent(), 0u);
  EXPECT_GT(a.nic().rm_cells_received(), 0u);
  EXPECT_GT(a.nic().congestion_throttle_events(), 0u);
  EXPECT_LT(a.nic().vc_rate_factor(kVcA), 1.0);
  EXPECT_GT(delivered, 0u);

  // Quiet period: the source stops, the queued backlog (up to 32
  // inflight PDUs) drains at the throttled rate, and the
  // multiplicative-increase recovery walks the rate back to full.
  src->stop();
  bed.run_for(sim::milliseconds(120));
  EXPECT_GT(a.nic().congestion_recoveries(), 0u);
  EXPECT_DOUBLE_EQ(a.nic().vc_rate_factor(kVcA), 1.0);

  auto auditor = bed.audit(/*include_hops=*/true);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST(Congestion, ContractedVcIsNeverThrottled) {
  // CBR with a contract is CAC's business, not the feedback loop's: RM
  // cells must leave a shaped VC's rate alone.
  core::Testbed bed;
  auto& sw = bed.add_switch({.ports = 2,
                             .queue_cells = 64,
                             .clp_threshold = 64,
                             .port_rate = atm::raw_rate(62e6),
                             .efci_threshold = 4});
  core::StationConfig cfg;
  cfg.nic.congestion.enabled = true;
  auto& a = bed.add_station(cfg);
  auto& b = bed.add_station(cfg);
  bed.connect_to_switch(a, sw, 0);
  bed.connect_from_switch(sw, 1, b);
  bed.connect_to_switch(b, sw, 1);
  bed.connect_from_switch(sw, 0, a);
  sw.add_route(0, kVcA, 1, kVcA);
  sw.add_route(1, kVcA, 0, kVcA);
  a.nic().open_vc(kVcA, aal::AalType::kAal5);
  b.nic().open_vc(kVcA, aal::AalType::kAal5);
  // Contracted at 100k cells/s: shaped at the source.
  a.nic().tx().set_shaper(kVcA, 100000.0, sim::microseconds(3));

  auto src = std::make_shared<net::SduSource>(
      bed.sim(),
      net::SduSource::Config{.mode = net::SduSource::Mode::kCbr,
                             .sdu_bytes = 9180,
                             .count = 0,
                             .interval = sim::microseconds(500),
                             .seed = 3},
      [&a](aal::Bytes sdu) {
        return a.host().send(kVcA, aal::AalType::kAal5, std::move(sdu));
      });
  src->start();
  bed.run_for(sim::milliseconds(20));
  src->stop();

  // Even if RM cells arrived (the shared pool can still mark), the
  // contracted VC's rate factor never moved.
  EXPECT_EQ(a.nic().congestion_throttle_events(), 0u);
  EXPECT_DOUBLE_EQ(a.nic().vc_rate_factor(kVcA), 1.0);
}

}  // namespace
}  // namespace hni
