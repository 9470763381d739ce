// Host model tests: driver send window, CPU accounting, receive
// hand-off; pinned and touched host pages; and the software-SAR
// baseline host end to end.

#include <gtest/gtest.h>

#include <vector>

#include "atm/rm.hpp"
#include "core/testbed.hpp"
#include "host/sw_sar.hpp"

namespace hni::host {
namespace {

const atm::VcId kVc{0, 50};

TEST(Host, SendWindowEnforced) {
  core::Testbed bed;
  core::StationConfig cfg;
  cfg.host.max_inflight_tx = 2;
  auto& a = bed.add_station(cfg);
  auto& b = bed.add_station({});
  bed.connect(a, b);
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);

  EXPECT_TRUE(a.host().send(kVc, aal::AalType::kAal5,
                            aal::make_pattern(100, 1)));
  EXPECT_TRUE(a.host().send(kVc, aal::AalType::kAal5,
                            aal::make_pattern(100, 2)));
  EXPECT_FALSE(a.host().send(kVc, aal::AalType::kAal5,
                             aal::make_pattern(100, 3)));
  EXPECT_EQ(a.host().inflight_tx(), 2u);

  bool ready = false;
  a.host().set_tx_ready([&] { ready = true; });
  bed.run_for(sim::milliseconds(5));
  EXPECT_TRUE(ready);
  EXPECT_EQ(a.host().inflight_tx(), 0u);
  EXPECT_TRUE(a.host().send(kVc, aal::AalType::kAal5,
                            aal::make_pattern(100, 4)));
}

TEST(Host, DeliversVerifiedBytes) {
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b);
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);

  const aal::Bytes sdu = aal::make_pattern(5000, 9);
  aal::Bytes got;
  RxInfo info{};
  b.host().set_rx_handler([&](aal::Bytes s, const RxInfo& i) {
    got = std::move(s);
    info = i;
  });
  a.host().send(kVc, aal::AalType::kAal5, sdu);
  bed.run_for(sim::milliseconds(5));

  EXPECT_EQ(got, sdu);
  EXPECT_EQ(info.vc, kVc);
  EXPECT_GT(info.handed_up_time, info.delivered_time);
  EXPECT_GT(info.delivered_time, info.first_cell_time);
  EXPECT_EQ(b.host().sdus_received(), 1u);
  EXPECT_EQ(b.host().interrupts_taken(), 1u);
}

TEST(Host, HostMemoryReclaimedAfterRoundtrip) {
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b);
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);
  const std::size_t free_a = a.memory().pages_free();
  const std::size_t free_b = b.memory().pages_free();
  b.host().set_rx_handler([](aal::Bytes, const RxInfo&) {});
  for (int i = 0; i < 4; ++i) {
    a.host().send(kVc, aal::AalType::kAal5, aal::make_pattern(8000, i));
    bed.run_for(sim::milliseconds(3));
  }
  EXPECT_EQ(a.memory().pages_free(), free_a);
  EXPECT_EQ(b.memory().pages_free(), free_b);
}

TEST(Host, CpuChargedPerOperation) {
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b);
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);
  b.host().set_rx_handler([](aal::Bytes, const RxInfo&) {});
  a.host().send(kVc, aal::AalType::kAal5, aal::make_pattern(1000, 1));
  bed.run_for(sim::milliseconds(5));
  const HostCosts costs;
  EXPECT_EQ(a.host().cpu().instructions_retired(),
            costs.tx_syscall + costs.tx_completion);
  EXPECT_EQ(b.host().cpu().instructions_retired(),
            costs.interrupt_entry + costs.rx_per_pdu);
}

TEST(Host, ClosedVcReportsAnUnthrottledRate) {
  // Nic::close_vc lifts the VC's throttle, and the TX path is the one
  // owner of the factor: neither the host nor the NIC keeps a copy
  // that could still read the last throttle after the close.
  core::Testbed bed;
  core::StationConfig cfg;
  cfg.nic.congestion.enabled = true;
  auto& a = bed.add_station(cfg);
  auto& b = bed.add_station(cfg);
  bed.connect(a, b);
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);
  // A backward RM cell with the congestion bit, as a sink sends on
  // seeing EFCI marks, throttles a's VC.
  atm::Cell rm;
  rm.header.vc = kVc;
  rm.header.pti = atm::Pti::kResourceMgmt;
  rm.payload[0] = atm::kRmProtocolId;
  atm::rm_set_flags(rm.payload.data(),
                    atm::kRmFlagBackward | atm::kRmFlagCi);
  atm::rm_set_explicit_rate(rm.payload.data(), atm::kRmErUnlimited);
  b.nic().tx().inject_cell(rm);
  bed.run_for(sim::microseconds(50));
  ASSERT_LT(a.nic().vc_rate_factor(kVc), 1.0);
  EXPECT_EQ(a.nic().congestion_throttle_events(), 1u);

  a.nic().close_vc(kVc);
  EXPECT_EQ(a.nic().vc_rate_factor(kVc), 1.0);
}

// --- host memory: what is pinned, what is touched ---------------------

std::size_t pinned_budget(const HostConfig& c) {
  return c.rx_posted_pages + c.max_inflight_tx;
}

TEST(Host, DefaultStationKeepsOnlyThePinnedBudgetResident) {
  // The store is zero-filled on demand: a station holds resident only
  // the pages its driver pins, not all 16 MiB of host memory.
  sim::Simulator sim;
  core::Station st(sim, core::StationConfig{});
  const std::size_t budget = pinned_budget(st.config().host);
  constexpr std::size_t kSlack = 16;
  ASSERT_LT(budget + kSlack, st.memory().pages_total());
  EXPECT_GE(st.memory().pages_resident(), budget);
  EXPECT_LE(st.memory().pages_resident(), budget + kSlack);
}

TEST(Host, ManyVcOneCellTrafficStaysInsideThePinnedPages) {
  // Shaped like the hostbench p2p-manyvc workload: 4096 VCs on each
  // NIC, one-cell SDUs, a greedy sender rotating over the VCs.
  core::Testbed bed;
  core::StationConfig cfg;
  cfg.nic.line = atm::sts3c();
  auto& a = bed.add_station(cfg);
  auto& b = bed.add_station(cfg);
  bed.connect(a, b);
  constexpr std::size_t kVcs = 4096;
  std::vector<atm::VcId> vcs;
  for (std::size_t i = 0; i < kVcs; ++i) {
    const atm::VcId vc{0, static_cast<std::uint16_t>(32 + i)};
    a.nic().open_vc(vc, aal::AalType::kAal5);
    b.nic().open_vc(vc, aal::AalType::kAal5);
    vcs.push_back(vc);
  }
  std::uint64_t delivered = 0;
  b.host().set_rx_handler([&](aal::Bytes, const RxInfo&) { ++delivered; });
  std::size_t next = 0;
  auto pump = [&] {
    while (a.host().send(vcs[next % kVcs], aal::AalType::kAal5,
                         aal::make_pattern(40, next))) {
      ++next;
    }
  };
  a.host().set_tx_ready(pump);
  pump();
  bed.run_for(sim::milliseconds(10));
  EXPECT_GT(delivered, 500u);
  // The receiver holds hundreds of landing pages at once: the posted
  // budget, not the send window, is what the pinned prefix must cover.
  EXPECT_GT(b.memory().pages_touched(), 100u);
  for (core::Station* st : {&a, &b}) {
    EXPECT_LE(st->memory().pages_touched(), pinned_budget(cfg.host));
  }
}

// --- software-SAR baseline -------------------------------------------

struct SwPair {
  sim::Simulator sim;
  bus::Bus bus_a{sim, bus::BusConfig{}};
  bus::Bus bus_b{sim, bus::BusConfig{}};
  SwSarHost a{sim, bus_a, SwSarConfig{}};
  SwSarHost b{sim, bus_b, SwSarConfig{}};
  net::Link ab{sim, sim::microseconds(5)};
  net::Link ba{sim, sim::microseconds(5)};

  SwPair() {
    ab.set_sink([this](const net::WireCell& w) { b.receive_wire(w); });
    ba.set_sink([this](const net::WireCell& w) { a.receive_wire(w); });
    a.attach_tx(ab);
    b.attach_tx(ba);
    a.open_vc(kVc, aal::AalType::kAal5);
    b.open_vc(kVc, aal::AalType::kAal5);
  }
};

TEST(SwSarHost, RoundtripDeliversBytes) {
  SwPair p;
  const aal::Bytes sdu = aal::make_pattern(3000, 4);
  aal::Bytes got;
  p.b.set_rx_handler([&](aal::Bytes s, const RxInfo&) { got = std::move(s); });
  EXPECT_TRUE(p.a.send(kVc, aal::AalType::kAal5, sdu));
  p.sim.run_until(sim::milliseconds(20));
  EXPECT_EQ(got, sdu);
  EXPECT_EQ(p.b.sdus_received(), 1u);
}

TEST(SwSarHost, PerCellInterruptsOnReceive) {
  SwPair p;
  p.b.set_rx_handler([](aal::Bytes, const RxInfo&) {});
  const std::size_t n = 3000;
  p.a.send(kVc, aal::AalType::kAal5, aal::make_pattern(n, 4));
  p.sim.run_until(sim::milliseconds(20));
  // The software sender trickles cells out at roughly the service rate
  // of the software receiver, so the receiver's "drain the FIFO in one
  // interrupt" loop batches only a handful of cells per interrupt:
  // interrupts stay within an order of magnitude of the cell count —
  // nothing like the single per-PDU interrupt of the outboard design.
  EXPECT_GT(p.b.interrupts_taken(), aal::aal5_cell_count(n) / 10);
  EXPECT_GT(p.b.interrupts_taken(), 1u);
}

TEST(SwSarHost, HostCpuSaturatesUnderLoad) {
  SwPair p;
  p.b.set_rx_handler([](aal::Bytes, const RxInfo&) {});
  // Keep offering PDUs for the whole run.
  int queued = 0;
  std::function<void()> offer = [&] {
    while (queued < 50 &&
           p.a.send(kVc, aal::AalType::kAal5, aal::make_pattern(9000, queued))) {
      ++queued;
    }
  };
  p.a.set_tx_ready(offer);
  offer();
  p.sim.run_until(sim::milliseconds(30));
  // The sending host's CPU is the bottleneck: near-saturated.
  EXPECT_GT(p.a.cpu_utilization(), 0.9);
}

TEST(SwSarHost, RxFifoOverflowsWhenHostCannotKeepUp) {
  // Drive the software receiver from a fast hardware sender model: a
  // raw link injecting back-to-back cells at STS-3c.
  sim::Simulator sim;
  bus::Bus bus(sim, bus::BusConfig{});
  SwSarConfig cfg;
  cfg.rx_fifo_cells = 8;
  SwSarHost rx_host(sim, bus, cfg);
  rx_host.open_vc(kVc, aal::AalType::kAal5);
  rx_host.set_rx_handler([](aal::Bytes, const RxInfo&) {});

  auto cells = aal::aal5_segment(aal::make_pattern(60000, 1), kVc);
  sim::Time t = 0;
  for (const auto& cell : cells) {
    net::WireCell w;
    w.bytes = cell.serialize(atm::HeaderFormat::kUni);
    sim.at(t, [&rx_host, w] { rx_host.receive_wire(w); });
    t += sim::nanoseconds(2831);
  }
  sim.run_until(t + sim::milliseconds(5));
  EXPECT_GT(rx_host.rx_fifo_drops(), 0u);
}

TEST(SwSarHost, RefusesWhenWindowFull) {
  SwPair p;
  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    if (p.a.send(kVc, aal::AalType::kAal5, aal::make_pattern(9000, i))) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 4);  // default max_inflight_tx
}

}  // namespace
}  // namespace hni::host
