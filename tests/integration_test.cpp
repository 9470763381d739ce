// Cross-module integration tests: full topologies exercising every
// subsystem together — multi-VC hosts, a switch in the middle,
// congestion, lossy WAN paths, and the architecture-vs-baseline
// comparison the paper builds toward.

#include <gtest/gtest.h>

#include <map>

#include "core/scenario.hpp"
#include "core/testbed.hpp"

namespace hni {
namespace {

using aal::AalType;
using atm::VcId;

TEST(Integration, ManySizesManyPdusAllVerify) {
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b);
  const VcId vc{0, 5};
  a.nic().open_vc(vc, AalType::kAal5);
  b.nic().open_vc(vc, AalType::kAal5);

  std::size_t received = 0;
  std::size_t bad = 0;
  b.host().set_rx_handler([&](aal::Bytes sdu, const host::RxInfo&) {
    ++received;
    if (!aal::verify_pattern(sdu)) ++bad;
  });

  const std::vector<std::size_t> sizes{1,    4,   40,  41,   48,  100,
                                       512,  1500, 4352, 9180, 16000,
                                       65535};
  std::size_t next = 0;
  std::function<void()> feed = [&] {
    while (next < sizes.size() &&
           a.host().send(vc, AalType::kAal5,
                         aal::make_pattern(sizes[next], next + 1))) {
      ++next;
    }
  };
  a.host().set_tx_ready(feed);
  feed();
  bed.run_for(sim::milliseconds(100));

  EXPECT_EQ(received, sizes.size());
  EXPECT_EQ(bad, 0u);
}

TEST(Integration, BidirectionalTrafficSimultaneously) {
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b);
  const VcId vc{0, 5};
  a.nic().open_vc(vc, AalType::kAal5);
  b.nic().open_vc(vc, AalType::kAal5);

  std::size_t at_a = 0, at_b = 0;
  a.host().set_rx_handler([&](aal::Bytes s, const host::RxInfo&) {
    EXPECT_TRUE(aal::verify_pattern(s));
    ++at_a;
  });
  b.host().set_rx_handler([&](aal::Bytes s, const host::RxInfo&) {
    EXPECT_TRUE(aal::verify_pattern(s));
    ++at_b;
  });
  for (int i = 0; i < 5; ++i) {
    a.host().send(vc, AalType::kAal5, aal::make_pattern(4000, 10 + i));
    b.host().send(vc, AalType::kAal5, aal::make_pattern(3000, 20 + i));
  }
  bed.run_for(sim::milliseconds(20));
  EXPECT_EQ(at_a, 5u);
  EXPECT_EQ(at_b, 5u);
}

TEST(Integration, MixedAalsOnSeparateVcs) {
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b);
  const VcId v5{0, 5};
  const VcId v34{0, 6};
  a.nic().open_vc(v5, AalType::kAal5);
  b.nic().open_vc(v5, AalType::kAal5);
  a.nic().open_vc(v34, AalType::kAal34);
  b.nic().open_vc(v34, AalType::kAal34);

  std::map<std::uint16_t, std::size_t> got;
  b.host().set_rx_handler([&](aal::Bytes s, const host::RxInfo& info) {
    EXPECT_TRUE(aal::verify_pattern(s));
    ++got[info.vc.vci];
  });
  for (int i = 0; i < 3; ++i) {
    a.host().send(v5, AalType::kAal5, aal::make_pattern(2000, 100 + i));
    a.host().send(v34, AalType::kAal34, aal::make_pattern(2000, 200 + i));
  }
  bed.run_for(sim::milliseconds(20));
  EXPECT_EQ(got[5], 3u);
  EXPECT_EQ(got[6], 3u);
}

TEST(Integration, ThroughSwitchWithVciTranslation) {
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  auto& sw = bed.add_switch(
      {.ports = 2, .queue_cells = 256, .clp_threshold = 256});
  bed.connect_to_switch(a, sw, 0);
  bed.connect_from_switch(sw, 1, b);
  sw.add_route(0, {0, 10}, 1, {0, 99});

  a.nic().open_vc({0, 10}, AalType::kAal5);
  b.nic().open_vc({0, 99}, AalType::kAal5);

  aal::Bytes got;
  VcId got_vc{};
  b.host().set_rx_handler([&](aal::Bytes s, const host::RxInfo& i) {
    got = std::move(s);
    got_vc = i.vc;
  });
  const aal::Bytes sdu = aal::make_pattern(5000, 3);
  a.host().send({0, 10}, AalType::kAal5, sdu);
  bed.run_for(sim::milliseconds(20));

  EXPECT_EQ(got, sdu);
  EXPECT_EQ(got_vc, (VcId{0, 99}));
  EXPECT_GT(sw.cells_forwarded(), 0u);
}

TEST(Integration, TwoSendersCongestOneSwitchPort) {
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  auto& c = bed.add_station({});
  auto& sw = bed.add_switch(
      {.ports = 3, .queue_cells = 64, .clp_threshold = 64});
  bed.connect_to_switch(a, sw, 0);
  bed.connect_to_switch(b, sw, 1);
  bed.connect_from_switch(sw, 2, c);
  sw.add_route(0, {0, 1}, 2, {0, 1});
  sw.add_route(1, {0, 2}, 2, {0, 2});

  a.nic().open_vc({0, 1}, AalType::kAal5);
  b.nic().open_vc({0, 2}, AalType::kAal5);
  c.nic().open_vc({0, 1}, AalType::kAal5);
  c.nic().open_vc({0, 2}, AalType::kAal5);

  std::size_t delivered = 0;
  c.host().set_rx_handler(
      [&](aal::Bytes s, const host::RxInfo&) {
        EXPECT_TRUE(aal::verify_pattern(s));
        ++delivered;
      });

  // Two Poisson sources totalling ~1.4x the output port capacity: the
  // contended queue overflows intermittently, so some PDUs die while
  // others get through whole.
  auto drive = [&](core::Station& s, VcId vc, std::uint64_t seed_base) {
    auto src = std::make_shared<net::SduSource>(
        bed.sim(),
        net::SduSource::Config{.mode = net::SduSource::Mode::kPoisson,
                               .sdu_bytes = 9180,
                               .count = 0,
                               .interval = sim::microseconds(780),
                               .seed = seed_base},
        [&s, vc](aal::Bytes sdu) {
          return s.host().send(vc, AalType::kAal5, std::move(sdu));
        });
    src->start();
    return src;
  };
  auto src_a = drive(a, {0, 1}, 1);
  auto src_b = drive(b, {0, 2}, 2);
  bed.run_for(sim::milliseconds(80));

  // The contended port must drop cells...
  EXPECT_GT(sw.cells_dropped_overflow(), 0u);
  // ...which surface as errored PDUs at the receiver NIC...
  EXPECT_GT(c.nic().rx().pdus_errored(), 0u);
  // ...while whole PDUs still get through and verify.
  EXPECT_GT(delivered, 0u);
  (void)src_a;
  (void)src_b;
}

TEST(Integration, WanPathCorrelatedLossStillDeliversVerifiedPdus) {
  core::P2pConfig cfg;
  net::SduSource::Config& traffic = cfg.flows.emplace_back().source;
  traffic.mode = net::SduSource::Mode::kGreedy;
  traffic.sdu_bytes = 9180;
  cfg.loss.cell_loss_rate = 0.002;
  cfg.loss.mean_burst_cells = 5.0;
  cfg.propagation = sim::milliseconds(5);  // ~1000 km
  cfg.measure = sim::milliseconds(40);
  const auto r = run_p2p(cfg);
  EXPECT_GT(r.sdus_received, 0u);
  EXPECT_GT(r.sdus_errored, 0u);
  EXPECT_TRUE(r.data_ok());
}

TEST(Integration, HeaderBitErrorsMostlyCorrectedEndToEnd) {
  core::P2pConfig cfg;
  net::SduSource::Config& traffic = cfg.flows.emplace_back().source;
  traffic.mode = net::SduSource::Mode::kGreedy;
  traffic.sdu_bytes = 9180;
  cfg.loss.header_bit_error_rate = 1e-3;
  cfg.measure = sim::milliseconds(30);
  const auto r = run_p2p(cfg);
  // Isolated single-bit header errors are corrected by the HEC, so
  // goodput stays near the clean ceiling.
  EXPECT_GT(r.sdus_received, 0u);
  EXPECT_TRUE(r.data_ok());
  EXPECT_GT(r.goodput_bps, 0.9 * r.offered_bps);
}

TEST(Integration, PayloadBitErrorsAreCaughtByCrc) {
  core::P2pConfig cfg;
  net::SduSource::Config& traffic = cfg.flows.emplace_back().source;
  traffic.mode = net::SduSource::Mode::kGreedy;
  traffic.sdu_bytes = 9180;
  cfg.loss.payload_bit_error_rate = 5e-3;
  cfg.measure = sim::milliseconds(30);
  const auto r = run_p2p(cfg);
  // Corrupted PDUs must be rejected (CRC-32), never delivered wrong.
  EXPECT_GT(r.sdus_errored, 0u);
  EXPECT_TRUE(r.data_ok());
}

TEST(Integration, FasterEngineClockRaisesSmallPduThroughput) {
  // Single-cell PDUs put per-PDU engine work on every wire slot: a
  // 12.5 MHz engine is compute-bound there, a 50 MHz one is line-bound.
  core::P2pConfig slow;
  net::SduSource::Config& traffic = slow.flows.emplace_back().source;
  traffic.mode = net::SduSource::Mode::kGreedy;
  traffic.sdu_bytes = 40;  // exactly one cell under AAL5
  slow.measure = sim::milliseconds(10);
  // Use a fast host CPU so the interface engine, not the driver
  // syscall path, is the limiting resource.
  slow.station.host.cpu.clock_hz = 400e6;
  slow.station.host.cpu.cpi = 1.0;
  slow.station.nic.with_clock(12.5e6);
  core::P2pConfig fast = slow;
  fast.station.nic.with_clock(50e6);
  const auto r_slow = core::run_p2p(slow);
  const auto r_fast = core::run_p2p(fast);
  EXPECT_GT(r_fast.goodput_bps, 1.5 * r_slow.goodput_bps);
}

}  // namespace
}  // namespace hni
