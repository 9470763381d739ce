// Core API tests: testbed wiring, the report formatter, and the
// canonical point-to-point scenario runner.

#include <gtest/gtest.h>

#include "core/report.hpp"
#include "core/scenario.hpp"

namespace hni::core {
namespace {

TEST(Table, FormatsAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.to_string("demo");
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumberHelpers) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::integer(42), "42");
  EXPECT_EQ(Table::percent(0.123, 1), "12.3%");
}

TEST(Testbed, StationsAreIndependent) {
  Testbed bed;
  auto& a = bed.add_station({.name = "a"});
  auto& b = bed.add_station({.name = "b"});
  EXPECT_EQ(a.name(), "a");
  EXPECT_EQ(b.name(), "b");
  EXPECT_NE(&a.bus(), &b.bus());
  EXPECT_NE(&a.memory(), &b.memory());
}

TEST(Testbed, RunForAdvancesClock) {
  Testbed bed;
  bed.run_for(sim::milliseconds(3));
  EXPECT_EQ(bed.now(), sim::milliseconds(3));
  bed.run_for(sim::milliseconds(2));
  EXPECT_EQ(bed.now(), sim::milliseconds(5));
}

TEST(Testbed, HopAuditRunsEveryIdentityOnEveryHopKind) {
  // One topology with every kind of wired hop: a station<->station
  // pair, station->switch, a switch<->switch trunk and switch->station.
  // Traffic crosses each hop, then the quiescent audit must run every
  // hop identity on every hop and find the books balanced.
  Testbed bed;
  auto& a = bed.add_station({.name = "a"});
  auto& b = bed.add_station({.name = "b"});
  auto& src = bed.add_station({.name = "src"});
  auto& dst = bed.add_station({.name = "dst"});
  const net::SwitchConfig sw_cfg{.ports = 2, .queue_cells = 256,
                                 .clp_threshold = 256};
  auto& sw0 = bed.add_switch(sw_cfg);
  auto& sw1 = bed.add_switch(sw_cfg);
  bed.connect(a, b);
  bed.connect_to_switch(src, sw0, 0);
  bed.connect_trunk(sw0, 1, sw1, 0);
  bed.connect_from_switch(sw1, 1, dst);
  const atm::VcId vc{0, 40};
  sw0.add_route(0, vc, 1, vc);
  sw1.add_route(0, vc, 1, vc);
  for (Station* s : {&a, &b, &src, &dst}) {
    s->nic().open_vc(vc, aal::AalType::kAal5);
  }
  std::size_t delivered = 0;
  const auto count = [&](aal::Bytes, const host::RxInfo&) { ++delivered; };
  a.host().set_rx_handler(count);
  b.host().set_rx_handler(count);
  dst.host().set_rx_handler(count);
  for (int i = 0; i < 3; ++i) {
    a.host().send(vc, aal::AalType::kAal5, aal::make_pattern(2000, i));
    b.host().send(vc, aal::AalType::kAal5, aal::make_pattern(1000, i));
    src.host().send(vc, aal::AalType::kAal5, aal::make_pattern(3000, i));
  }
  bed.run_for(sim::milliseconds(20));
  EXPECT_EQ(delivered, 9u);

  const InvariantAuditor auditor = bed.audit(/*include_hops=*/true);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  // 4 stations x 11 + 2 switches x 7 station and switch identities;
  // emission and delivery on each of the 6 hops, corruption accounting
  // on the 3 hops into a station; 1 fabric path conservation.
  EXPECT_EQ(auditor.checks_run(), 44u + 14u + 6u * 2u + 3u + 1u);
}

TEST(RunP2p, GreedyAal5ReachesLineRate) {
  P2pConfig cfg;
  net::SduSource::Config& traffic = cfg.flows.emplace_back().source;
  traffic.mode = net::SduSource::Mode::kGreedy;
  traffic.sdu_bytes = 9180;
  cfg.warmup = sim::milliseconds(2);
  cfg.measure = sim::milliseconds(20);
  const P2pResult r = run_p2p(cfg);

  EXPECT_TRUE(r.data_ok());
  EXPECT_GT(r.sdus_received, 0u);
  EXPECT_EQ(r.sdus_errored, 0u);
  EXPECT_EQ(r.cells_fifo_dropped, 0u);
  // AAL5 goodput ceiling at STS-3c: payload_rate * 48/53 * (9180/9216).
  const double ceiling = 149.76e6 * (9180.0 * 8) / (192.0 * 424.0);
  EXPECT_GT(r.goodput_bps, 0.9 * ceiling);
  EXPECT_LT(r.goodput_bps, 1.02 * ceiling);
  EXPECT_GT(r.tx_line_util, 0.95);
  EXPECT_GT(r.latency_mean_us, 0.0);
}

TEST(RunP2p, Aal34CarriesLessGoodput) {
  P2pConfig cfg;
  net::SduSource::Config& traffic = cfg.flows.emplace_back().source;
  traffic.mode = net::SduSource::Mode::kGreedy;
  traffic.sdu_bytes = 9180;
  cfg.measure = sim::milliseconds(10);
  P2pConfig cfg34 = cfg;
  cfg34.aal = aal::AalType::kAal34;
  const P2pResult r5 = run_p2p(cfg);
  const P2pResult r34 = run_p2p(cfg34);
  EXPECT_TRUE(r34.data_ok());
  // 44/48 payload ratio shows up directly.
  EXPECT_LT(r34.goodput_bps, 0.95 * r5.goodput_bps);
  EXPECT_GT(r34.goodput_bps, 0.85 * r5.goodput_bps);
}

TEST(RunP2p, LossyLinkProducesErroredPdus) {
  P2pConfig cfg;
  net::SduSource::Config& traffic = cfg.flows.emplace_back().source;
  traffic.mode = net::SduSource::Mode::kGreedy;
  traffic.sdu_bytes = 9180;
  cfg.loss.cell_loss_rate = 0.001;
  cfg.measure = sim::milliseconds(20);
  const P2pResult r = run_p2p(cfg);
  EXPECT_GT(r.sdus_errored, 0u);
  EXPECT_TRUE(r.data_ok());  // delivered PDUs are still byte-perfect
  EXPECT_LT(r.goodput_bps, r.offered_bps);
}

TEST(RunP2p, OpenLoopPoissonUnderload) {
  P2pConfig cfg;
  net::SduSource::Config& traffic = cfg.flows.emplace_back().source;
  traffic.mode = net::SduSource::Mode::kPoisson;
  traffic.sdu_bytes = 1000;
  traffic.interval = sim::microseconds(500);  // ~16 Mb/s offered
  cfg.measure = sim::milliseconds(20);
  const P2pResult r = run_p2p(cfg);
  // Underload: everything offered is delivered.
  EXPECT_NEAR(r.goodput_bps, r.offered_bps, 0.1 * r.offered_bps);
  EXPECT_EQ(r.cells_fifo_dropped, 0u);
  EXPECT_LT(r.rx_engine_util, 0.5);
}

TEST(RunP2p, ShapedFlowsKeepSeparateBooks) {
  // Two CBR flows offered well above their PCR contracts: each VC is
  // held to its own shaper, and the per-flow window books add up.
  constexpr double kPcrMbps[] = {20.0, 10.0};
  P2pConfig cfg;
  for (const sim::Time interval :
       {sim::microseconds(200), sim::microseconds(300)}) {
    P2pFlow& f = cfg.flows.emplace_back();
    f.source.mode = net::SduSource::Mode::kCbr;
    f.source.sdu_bytes = 1500;
    f.source.interval = interval;  // 60 and 40 Mb/s offered
    f.source.seed = 7 + cfg.flows.size();
  }
  for (std::size_t i = 0; i < 2; ++i) {
    cfg.flows[i].pcr_cells_per_second = kPcrMbps[i] * 1e6 / (48.0 * 8.0);
  }
  cfg.measure = sim::milliseconds(20);
  const P2pResult r = run_p2p(cfg);

  ASSERT_EQ(r.window.flow_bytes.size(), 2u);
  const std::uint64_t total = r.window.flow_bytes[0] + r.window.flow_bytes[1];
  EXPECT_DOUBLE_EQ(static_cast<double>(total) * 8.0 / 0.020, r.goodput_bps);
  for (std::size_t i = 0; i < 2; ++i) {
    const double mbps =
        static_cast<double>(r.window.flow_bytes[i]) * 8.0 / 0.020 / 1e6;
    EXPECT_LE(mbps, kPcrMbps[i]) << "flow " << i;
    EXPECT_GT(mbps, 0.85 * kPcrMbps[i]) << "flow " << i;
  }
  EXPECT_LE(r.window.offered_delivered_bytes, r.window.offered_bytes);
  EXPECT_TRUE(r.data_ok());
  EXPECT_TRUE(r.audit_clean);
}

}  // namespace
}  // namespace hni::core
