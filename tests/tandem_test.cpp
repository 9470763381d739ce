// Multi-hop topologies: two switches in tandem with per-hop VCI
// translation, and a randomized signalling churn property test.

#include <gtest/gtest.h>

#include <functional>

#include "sig/network.hpp"
#include "sim/random.hpp"

namespace hni {
namespace {

TEST(Tandem, TwoSwitchesTranslatePerHop) {
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  auto& sw1 = bed.add_switch({.ports = 2, .queue_cells = 256,
                              .clp_threshold = 256});
  auto& sw2 = bed.add_switch({.ports = 2, .queue_cells = 256,
                              .clp_threshold = 256});

  // a -> sw1(0) ; sw1(1) -> sw2(0) ; sw2(1) -> b, with a VCI rewrite at
  // every hop: 10 -> 20 -> 30.
  bed.connect_to_switch(a, sw1, 0);
  net::Link& middle = bed.add_link(sim::microseconds(20));
  middle.set_sink([&sw2](const net::WireCell& w) { sw2.receive(0, w); });
  sw1.attach_output(1, middle);
  bed.connect_from_switch(sw2, 1, b);
  sw1.add_route(0, {0, 10}, 1, {0, 20});
  sw2.add_route(0, {0, 20}, 1, {0, 30});

  a.nic().open_vc({0, 10}, aal::AalType::kAal5);
  b.nic().open_vc({0, 30}, aal::AalType::kAal5);

  aal::Bytes got;
  atm::VcId got_vc{};
  b.host().set_rx_handler([&](aal::Bytes s, const host::RxInfo& i) {
    got = std::move(s);
    got_vc = i.vc;
  });
  const aal::Bytes sdu = aal::make_pattern(6000, 5);
  a.host().send({0, 10}, aal::AalType::kAal5, sdu);
  bed.run_for(sim::milliseconds(20));

  EXPECT_EQ(got, sdu);
  EXPECT_EQ(got_vc, (atm::VcId{0, 30}));
  EXPECT_EQ(sw1.cells_forwarded(), sw2.cells_forwarded());
}

TEST(Tandem, PerHopQueueingAccumulatesLatency) {
  // The same transfer through 0, 1 and 2 switches: each hop adds at
  // least its store-and-forward cell time and propagation.
  auto run_hops = [](int hops) -> sim::Time {
    core::Testbed bed;
    auto& a = bed.add_station({});
    auto& b = bed.add_station({});
    const atm::VcId vc{0, 10};
    if (hops == 0) {
      bed.connect(a, b);
    } else {
      std::vector<net::Switch*> sws;
      for (int i = 0; i < hops; ++i) {
        sws.push_back(&bed.add_switch(
            {.ports = 2, .queue_cells = 256, .clp_threshold = 256}));
      }
      bed.connect_to_switch(a, *sws[0], 0);
      for (int i = 0; i + 1 < hops; ++i) {
        net::Link& l = bed.add_link(sim::microseconds(5));
        auto* next = sws[static_cast<std::size_t>(i + 1)];
        l.set_sink([next](const net::WireCell& w) { next->receive(0, w); });
        sws[static_cast<std::size_t>(i)]->attach_output(1, l);
        sws[static_cast<std::size_t>(i)]->add_route(0, vc, 1, vc);
      }
      bed.connect_from_switch(*sws.back(), 1, b);
      sws.back()->add_route(0, vc, 1, vc);
    }
    a.nic().open_vc(vc, aal::AalType::kAal5);
    b.nic().open_vc(vc, aal::AalType::kAal5);
    sim::Time latency = 0;
    b.host().set_rx_handler([&](aal::Bytes, const host::RxInfo& i) {
      latency = i.handed_up_time - i.first_cell_time;
    });
    a.host().send(vc, aal::AalType::kAal5, aal::make_pattern(2000, 1));
    bed.run_for(sim::milliseconds(50));
    return latency;
  };

  const sim::Time h0 = run_hops(0);
  const sim::Time h1 = run_hops(1);
  const sim::Time h2 = run_hops(2);
  ASSERT_GT(h0, 0);
  ASSERT_GT(h1, h0);
  ASSERT_GT(h2, h1);
  // Each extra switch adds roughly one cell slot (store-and-forward of
  // the tail cell) + 5 us propagation; allow generous bounds.
  EXPECT_LT(h2 - h1, sim::microseconds(40));
}

TEST(Tandem, SignalingChurnConservesResources) {
  // Random storms of place/release; invariants: the VCI pool returns to
  // baseline, no routes leak, every call reaches a terminal state.
  sim::Rng rng(4242);
  core::Testbed bed;
  auto& sw = bed.add_switch(
      {.ports = 3, .queue_cells = 512, .clp_threshold = 512});
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  sig::SignalingConfig cfg;
  cfg.max_vcs_per_port = 16;
  sig::SignalingNetwork net(bed, sw, 2, cfg);
  auto& cc_a = net.attach(a, 0, 1);
  auto& cc_b = net.attach(b, 1, 2);

  // Callee accepts 70% of calls.
  cc_b.set_incoming([&](const sig::CallControl::CallInfo&) {
    return rng.chance(0.7);
  });

  std::size_t connected = 0, failed = 0, released = 0;
  cc_a.set_released([&](const sig::CallControl::CallInfo&, sig::Cause) {
    ++released;
  });
  std::function<void(int)> storm = [&](int remaining) {
    if (remaining == 0) return;
    cc_a.place_call(
        2, aal::AalType::kAal5, 0.0,
        [&, remaining](const sig::CallControl::CallInfo& info) {
          ++connected;
          // Hold the call a random while, then release.
          bed.sim().after(
              sim::microseconds(
                  static_cast<std::int64_t>(rng.uniform_int(50, 2000))),
              [&, id = info.call_id] { cc_a.release(id); });
          storm(remaining - 1);
        },
        [&, remaining](std::uint32_t, sig::Cause) {
          ++failed;
          storm(remaining - 1);
        });
  };
  storm(60);
  bed.run_for(sim::seconds(1));

  EXPECT_EQ(connected + failed, 60u);
  EXPECT_EQ(released, connected);
  EXPECT_EQ(cc_a.active_calls(), 0u);
  EXPECT_EQ(cc_b.active_calls(), 0u);
  EXPECT_EQ(net.active_calls(), 0u);
  EXPECT_GT(connected, 20u);
  EXPECT_GT(failed, 5u);

  // Pool conserved: one more call still connects and gets a low VCI.
  std::optional<atm::VcId> vc;
  cc_b.set_incoming([](const sig::CallControl::CallInfo&) { return true; });
  cc_a.place_call(2, aal::AalType::kAal5, 0.0,
                  [&](const sig::CallControl::CallInfo& i) { vc = i.vc; });
  bed.run_for(sim::milliseconds(10));
  ASSERT_TRUE(vc.has_value());
  EXPECT_LT(vc->vci, sig::kFirstDataVci + cfg.max_vcs_per_port);
}

}  // namespace
}  // namespace hni
