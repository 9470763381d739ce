// Multi-hop fabric resilience: OAM F5 continuity checking, AIS/RDI
// propagation through switches, and automatic protection switching.
//
// The canonical topology is a triangle fabric:
//
//           t0 (primary)
//   [sw0] ================= [sw1]
//     \\                     //
//      t1 \\             // t2
//           \\  [sw2]  //
//
// alice and the call agent attach to sw0, bob to sw1. The working path
// for an alice<->bob call is the single trunk t0; the standby path runs
// through sw2 (t1 + t2). Failing t0 exercises the whole fault chain:
// cells die at the trunk, sw1 originates AIS toward bob, bob's NIC
// reports the defect (RDI upstream + STATUS cause 27 to the agent), and
// the agent's protection sweep moves the call — endpoint-facing VCIs
// untouched — onto the standby path.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/audit.hpp"
#include "core/testbed.hpp"
#include "net/traffic.hpp"
#include "sig/network.hpp"
#include "sim/fault.hpp"
#include "sim/random.hpp"

namespace hni {
namespace {

using aal::AalType;
using atm::VcId;

// --- OAM continuity check: the endpoint state machine -----------------

constexpr VcId kVc{0, 77};

struct CcPair {
  core::Testbed bed;
  core::Station* a = nullptr;
  core::Station* b = nullptr;
  net::Link* ab = nullptr;
  net::Link* ba = nullptr;
};

// Point-to-point pair with CC active on one VC in both NICs.
// `rx_ais` controls whether b's PHY inserts AIS under loss-of-signal
// (the I.610 behaviour); disabling it exposes the raw LOC detector.
std::unique_ptr<CcPair> make_cc_pair(bool rx_ais) {
  auto p = std::make_unique<CcPair>();
  core::StationConfig sc;
  sc.nic.cc.enabled = true;
  if (!rx_ais) sc.nic.ais_period = 0;
  p->a = &p->bed.add_station(sc);
  p->b = &p->bed.add_station(sc);
  auto links = p->bed.connect(*p->a, *p->b, {}, sim::microseconds(5));
  p->ab = links.first;
  p->ba = links.second;
  p->a->nic().open_vc(kVc, AalType::kAal5);
  p->b->nic().open_vc(kVc, AalType::kAal5);
  p->a->nic().start_cc(kVc);
  p->b->nic().start_cc(kVc);
  return p;
}

TEST(ContinuityCheck, HeartbeatsFlowAndNoFalseAlarm) {
  auto p = make_cc_pair(/*rx_ais=*/true);
  p->bed.run_for(sim::milliseconds(5));

  EXPECT_GT(p->a->nic().cc_cells_sent(), 10u);
  EXPECT_GT(p->b->nic().cc_cells_received(), 10u);
  EXPECT_EQ(p->a->nic().cc_loss_declared(), 0u);
  EXPECT_EQ(p->b->nic().cc_loss_declared(), 0u);
  EXPECT_EQ(p->a->nic().cc_monitored(), 1u);
}

TEST(ContinuityCheck, DeclareAndClearThresholds) {
  auto p = make_cc_pair(/*rx_ais=*/false);

  std::vector<std::pair<nic::Nic::Defect, bool>> edges;
  p->b->nic().add_defect_observer(
      [&](VcId vc, nic::Nic::Defect d, bool active) {
        EXPECT_EQ(vc, kVc);
        edges.emplace_back(d, active);
      });

  p->bed.run_for(sim::milliseconds(2));
  ASSERT_EQ(p->b->nic().cc_loss_declared(), 0u);

  // Cut the a->b direction only: silence at b, but nothing at b's PHY
  // (its receive link "carrier" drops, yet AIS insertion is disabled).
  p->ab->set_down(true);
  // LOC must NOT be declared before kCcLossMultiplier periods of
  // silence…
  p->bed.run_for(static_cast<sim::Time>(
      static_cast<double>(nic::kCcPeriod) * (nic::kCcLossMultiplier - 1.0)));
  EXPECT_EQ(p->b->nic().cc_loss_declared(), 0u);
  // …and MUST be declared within a couple of periods after the
  // threshold.
  p->bed.run_for(nic::kCcPeriod * 3);
  EXPECT_EQ(p->b->nic().cc_loss_declared(), 1u);
  EXPECT_EQ(p->b->nic().cc_loss_standing(), 1u);
  EXPECT_TRUE(p->b->nic().cc_loss(kVc));

  // Repair: the first heartbeat through clears the alarm.
  p->ab->set_down(false);
  p->bed.run_for(nic::kCcPeriod * 3);
  EXPECT_EQ(p->b->nic().cc_loss_cleared(), 1u);
  EXPECT_EQ(p->b->nic().cc_loss_standing(), 0u);
  EXPECT_FALSE(p->b->nic().cc_loss(kVc));

  // Exactly one declare edge and one clear edge, in that order.
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], std::make_pair(nic::Nic::Defect::kLoc, true));
  EXPECT_EQ(edges[1], std::make_pair(nic::Nic::Defect::kLoc, false));

  core::InvariantAuditor auditor;
  auditor.audit_station(*p->a);
  auditor.audit_station(*p->b);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST(ContinuityCheck, UserDataCountsAsContinuity) {
  // CC declares on *total* silence; a VC carrying steady user data with
  // no heartbeats getting through separately must not alarm. Kill only
  // heartbeat generation at the source by never activating CC there —
  // b still monitors, fed by data cells alone.
  auto p = make_cc_pair(/*rx_ais=*/false);
  p->a->nic().stop_cc(kVc);  // no heartbeats from a at all

  bool stop = false;
  std::function<void()> pump = [&] {
    if (stop) return;
    p->a->host().send(kVc, AalType::kAal5, aal::make_pattern(400, 1));
    p->bed.sim().after(sim::microseconds(100), pump);
  };
  pump();
  p->bed.run_for(sim::milliseconds(3));
  stop = true;

  EXPECT_EQ(p->a->nic().cc_cells_sent(), 0u);
  EXPECT_EQ(p->b->nic().cc_loss_declared(), 0u);
}

TEST(ContinuityCheck, AisSuppressesLocAndRdiReachesSource) {
  // With the PHY's AIS insertion on (the I.610 chain), loss-of-signal
  // at b turns into AIS on the VC — which suppresses the LOC detector
  // (the defect is already alarmed) and echoes RDI back to a, pausing
  // a's transmitter for the alarm hold.
  auto p = make_cc_pair(/*rx_ais=*/true);
  p->bed.run_for(sim::milliseconds(1));

  p->ab->set_down(true);
  p->bed.run_for(sim::milliseconds(3));  // well past the LOC threshold

  EXPECT_GT(p->b->nic().ais_inserted(), 0u);
  EXPECT_EQ(p->b->nic().cc_loss_declared(), 0u)
      << "AIS must suppress the downstream LOC declaration";
  EXPECT_GT(p->b->nic().rdi_sent(), 0u);
  EXPECT_GT(p->a->nic().rdi_received(), 0u);
  EXPECT_TRUE(p->a->nic().tx().vc_paused(kVc));

  // Repair; AIS stops, the hold expires, the source resumes.
  p->ab->set_down(false);
  p->bed.run_for(nic::kRdiHold + nic::kAisHold + sim::milliseconds(2));
  EXPECT_FALSE(p->a->nic().tx().vc_paused(kVc));
  EXPECT_EQ(p->b->nic().cc_loss_standing(), 0u);

  core::InvariantAuditor auditor;
  auditor.audit_station(*p->a);
  auditor.audit_station(*p->b);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST(ContinuityCheck, CloseVcBalancesTheBooks) {
  // A VC closed while LOC stands must clear the alarm through the same
  // books (declared == cleared + standing) and stop monitoring.
  auto p = make_cc_pair(/*rx_ais=*/false);
  p->bed.run_for(sim::milliseconds(1));
  p->ab->set_down(true);
  p->bed.run_for(sim::milliseconds(2));
  ASSERT_EQ(p->b->nic().cc_loss_standing(), 1u);

  p->b->nic().close_vc(kVc);
  EXPECT_EQ(p->b->nic().cc_monitored(), 0u);
  EXPECT_EQ(p->b->nic().cc_loss_declared(),
            p->b->nic().cc_loss_cleared() + p->b->nic().cc_loss_standing());

  core::InvariantAuditor auditor;
  auditor.audit_station(*p->b);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

// --- the triangle fabric ----------------------------------------------

struct Fabric {
  core::Testbed bed;
  net::Switch* sw0 = nullptr;
  net::Switch* sw1 = nullptr;
  net::Switch* sw2 = nullptr;
  std::unique_ptr<sig::SignalingNetwork> net;
  core::Station* alice = nullptr;
  core::Station* bob = nullptr;
  sig::CallControl* cc_alice = nullptr;
  sig::CallControl* cc_bob = nullptr;
  std::size_t t0 = 0, t1 = 0, t2 = 0;
};

std::unique_ptr<Fabric> make_fabric(sig::SignalingConfig cfg,
                                    bool endpoint_cc = true,
                                    double sw2_port_rate_scale = 1.0) {
  auto f = std::make_unique<Fabric>();
  net::SwitchConfig swc{.ports = 4, .queue_cells = 512,
                        .clp_threshold = 512};
  f->sw0 = &f->bed.add_switch(swc);
  f->sw1 = &f->bed.add_switch(swc);
  net::SwitchConfig swc2 = swc;
  if (sw2_port_rate_scale != 1.0) {
    // A slower standby fabric: CAC headroom on the protection path is
    // scarcer than on the working path.
    swc2.port_rate.line_bps *= sw2_port_rate_scale;
    swc2.port_rate.payload_bps *= sw2_port_rate_scale;
  }
  f->sw2 = &f->bed.add_switch(swc2);
  f->net = std::make_unique<sig::SignalingNetwork>(
      f->bed, std::vector<net::Switch*>{f->sw0, f->sw1, f->sw2},
      /*agent_switch=*/0, /*agent_port=*/3, cfg);
  f->t0 = f->net->add_trunk(0, 1, 1, 1);  // sw0 <-> sw1 (primary)
  f->t1 = f->net->add_trunk(0, 2, 2, 0);  // sw0 <-> sw2
  f->t2 = f->net->add_trunk(2, 1, 1, 2);  // sw2 <-> sw1

  core::StationConfig sa{.name = "alice"};
  core::StationConfig sb{.name = "bob"};
  if (endpoint_cc) {
    sa.nic.cc.enabled = true;
    sb.nic.cc.enabled = true;
  }
  f->alice = &f->bed.add_station(sa);
  f->bob = &f->bed.add_station(sb);
  f->cc_alice = &f->net->attach(*f->alice, /*sw=*/0, /*port=*/0, /*party=*/1);
  f->cc_bob = &f->net->attach(*f->bob, /*sw=*/1, /*port=*/0, /*party=*/2);
  f->cc_bob->set_incoming(
      [](const sig::CallControl::CallInfo&) { return true; });
  return f;
}

void fail_trunk(Fabric& f, std::size_t trunk, bool down) {
  auto [ab, ba] = f.net->trunk_links(trunk);
  ab->set_down(down);
  ba->set_down(down);
}

struct Established {
  VcId alice_vc{};
  VcId bob_vc{};
  std::uint32_t call_id = 0;
};

// Establishes one alice->bob call and returns both VC ends + the ref.
Established establish(Fabric& f, double pcr = 0.0) {
  Established e;
  std::optional<VcId> alice_vc, bob_vc;
  f.cc_bob->set_incoming(
      [](const sig::CallControl::CallInfo&) { return true; },
      [&bob_vc](const sig::CallControl::CallInfo& i) { bob_vc = i.vc; });
  e.call_id = f.cc_alice->place_call(
      2, AalType::kAal5, pcr,
      [&alice_vc](const sig::CallControl::CallInfo& i) { alice_vc = i.vc; });
  f.bed.run_for(sim::milliseconds(2));
  EXPECT_TRUE(alice_vc.has_value());
  EXPECT_TRUE(bob_vc.has_value());
  e.alice_vc = alice_vc.value_or(VcId{});
  e.bob_vc = bob_vc.value_or(VcId{});
  return e;
}

TEST(Fabric, MultiHopCallSetupDataAndTeardown) {
  auto f = make_fabric({});
  const Established call = establish(*f);

  std::size_t got = 0;
  f->bob->host().set_rx_handler(
      [&](aal::Bytes sdu, const host::RxInfo& info) {
        EXPECT_TRUE(aal::verify_pattern(sdu));
        EXPECT_EQ(info.vc, call.bob_vc);
        ++got;
      });
  for (int i = 0; i < 5; ++i) {
    f->alice->host().send(call.alice_vc, AalType::kAal5,
                          aal::make_pattern(3000, i));
  }
  f->bed.run_for(sim::milliseconds(5));
  EXPECT_EQ(got, 5u);
  // The call crossed the trunk, not some accidental one-switch path.
  EXPECT_GT(f->sw1->cells_forwarded(), 0u);
  EXPECT_EQ(f->net->active_calls(), 1u);
  EXPECT_EQ(f->net->calls_routed(), 1u);

  // Teardown releases every hop on every switch.
  f->cc_alice->release(call.call_id);
  f->bed.run_for(sim::milliseconds(3));
  EXPECT_EQ(f->net->active_calls(), 0u);
  EXPECT_EQ(f->net->stranded_routes(), 0u);
  EXPECT_EQ(f->net->stranded_vcis(), 0u);

  auto audit = f->bed.audit(/*include_hops=*/true);
  f->net->audit_invariants(audit);
  EXPECT_TRUE(audit.ok()) << audit.report();
}

TEST(Fabric, TrunkFailureInsertsAisAtDownstreamSwitch) {
  auto f = make_fabric({});
  establish(*f);

  fail_trunk(*f, f->t0, true);
  f->bed.run_for(sim::milliseconds(3));

  // The switch just downstream of the failure (sw1 for alice->bob)
  // originated AIS on the translated out-VC, and bob both saw the alarm
  // and suppressed his LOC detector with it.
  EXPECT_GT(f->sw1->cells_ais_inserted(), 0u);
  EXPECT_GT(f->bob->nic().ais_received(), 0u);
  EXPECT_EQ(f->bob->nic().cc_loss_declared(), 0u)
      << "AIS from the fabric must suppress endpoint LOC";
  // Bob reported the defect to the network (STATUS cause 27)…
  EXPECT_GT(f->cc_bob->defect_reports(), 0u);
  // …and echoed RDI upstream; the b->a trunk direction is down too, so
  // the echo dies inside the fabric — but it was sent.
  EXPECT_GT(f->bob->nic().rdi_sent(), 0u);
}

TEST(Fabric, ProtectionSwitchesCallToStandbyPath) {
  sig::SignalingConfig cfg;
  cfg.protection.enabled = true;
  auto f = make_fabric(cfg);
  const Established call = establish(*f);

  std::size_t got = 0;
  f->bob->host().set_rx_handler(
      [&](aal::Bytes sdu, const host::RxInfo&) {
        EXPECT_TRUE(aal::verify_pattern(sdu));
        ++got;
      });

  fail_trunk(*f, f->t0, true);
  f->bed.run_for(sim::milliseconds(1));

  // The sweep moved the call (and bob's signalling relay, which also
  // rode t0) onto the standby path.
  EXPECT_EQ(f->net->reroutes(), 1u);
  EXPECT_GE(f->net->sig_reroutes(), 1u);
  EXPECT_EQ(f->net->calls_on_protection(), 1u);

  // Data flows end-to-end again, through sw2 — with the *same*
  // endpoint-facing VCIs (neither endpoint renegotiated anything).
  f->bed.run_for(nic::kRdiHold);  // drain a held pause
  const std::uint64_t sw2_before = f->sw2->cells_forwarded();
  for (int i = 0; i < 5; ++i) {
    f->alice->host().send(call.alice_vc, AalType::kAal5,
                          aal::make_pattern(3000, i));
  }
  f->bed.run_for(sim::milliseconds(5));
  EXPECT_EQ(got, 5u);
  EXPECT_GT(f->sw2->cells_forwarded(), sw2_before);

  auto audit = f->bed.audit(/*include_hops=*/false);
  f->net->audit_invariants(audit);
  EXPECT_TRUE(audit.ok()) << audit.report();
}

TEST(Fabric, RecoveredTrunkRevertsAfterWaitToRestore) {
  sig::SignalingConfig cfg;
  cfg.protection.enabled = true;
  auto f = make_fabric(cfg);
  establish(*f);

  fail_trunk(*f, f->t0, true);
  f->bed.run_for(sim::milliseconds(1));
  ASSERT_EQ(f->net->calls_on_protection(), 1u);

  // Repair. Nothing reverts before the wait-to-restore window…
  fail_trunk(*f, f->t0, false);
  f->bed.run_for(sig::kRevertDelay / 2);
  EXPECT_EQ(f->net->reverts(), 0u);
  EXPECT_EQ(f->net->calls_on_protection(), 1u);
  // …and the call (plus bob's signalling relay) reverts after it.
  f->bed.run_for(sig::kRevertDelay);
  EXPECT_EQ(f->net->reverts(), 1u);
  EXPECT_EQ(f->net->calls_on_protection(), 0u);

  auto audit = f->bed.audit(/*include_hops=*/false);
  f->net->audit_invariants(audit);
  EXPECT_TRUE(audit.ok()) << audit.report();
}

TEST(Fabric, FlapWithinHoldoffDoesNotReroute) {
  sig::SignalingConfig cfg;
  cfg.protection.enabled = true;
  cfg.protection.holdoff = sim::microseconds(200);
  auto f = make_fabric(cfg);
  establish(*f);

  // Down and back up well inside the holdoff: the damped sweep never
  // runs, the call never moves.
  fail_trunk(*f, f->t0, true);
  f->bed.run_for(sim::microseconds(50));
  fail_trunk(*f, f->t0, false);
  f->bed.run_for(sim::milliseconds(2));

  EXPECT_EQ(f->net->reroutes(), 0u);
  EXPECT_EQ(f->net->calls_on_protection(), 0u);
}

TEST(Fabric, CacRefusesStandbyPathWithoutHeadroom) {
  // The standby fabric (sw2) runs at a tenth of the line rate. A
  // contracted call that fits the working path cannot be admitted onto
  // the protection path — the reroute must fail *cleanly*: books
  // restored, failure counted, and the call recovers when the primary
  // trunk does.
  sig::SignalingConfig cfg;
  cfg.protection.enabled = true;
  cfg.cac_utilization = 0.5;
  auto f = make_fabric(cfg, /*endpoint_cc=*/true,
                       /*sw2_port_rate_scale=*/0.1);
  const double line =
      f->sw0->config().port_rate.cells_per_second();
  // Fits 0.5 * line on the working path; far beyond 0.5 * line/10.
  const Established call = establish(*f, /*pcr=*/0.3 * line);
  ASSERT_EQ(f->net->calls_routed(), 1u);

  fail_trunk(*f, f->t0, true);
  f->bed.run_for(sim::milliseconds(1));
  EXPECT_EQ(f->net->reroutes(), 0u);
  EXPECT_GE(f->net->reroutes_failed(), 1u);
  EXPECT_EQ(f->net->calls_on_protection(), 0u);
  // The CAC books survived the failed attempt intact.
  auto audit = f->bed.audit(/*include_hops=*/false);
  f->net->audit_invariants(audit);
  EXPECT_TRUE(audit.ok()) << audit.report();

  // When the working trunk returns, the stranded call flows again.
  fail_trunk(*f, f->t0, false);
  f->bed.run_for(nic::kRdiHold + sim::milliseconds(2));
  std::size_t got = 0;
  f->bob->host().set_rx_handler(
      [&](aal::Bytes, const host::RxInfo&) { ++got; });
  f->alice->host().send(call.alice_vc, AalType::kAal5,
                        aal::make_pattern(2000, 9));
  f->bed.run_for(sim::milliseconds(5));
  EXPECT_EQ(got, 1u);
}

TEST(Fabric, ContractedCallsRerouteBeforeBestEffort) {
  // With CAC headroom for only one contracted call on the standby path,
  // the sweep's ordering (contracted before best-effort, larger PCR
  // first) decides who survives. The big contract must win.
  sig::SignalingConfig cfg;
  cfg.protection.enabled = true;
  cfg.cac_utilization = 0.5;
  auto f = make_fabric(cfg, /*endpoint_cc=*/true,
                       /*sw2_port_rate_scale=*/0.5);
  const double line = f->sw0->config().port_rate.cells_per_second();
  // Standby CAC budget: 0.5 * 0.5 * line = 0.25 * line per port.
  establish(*f, /*pcr=*/0.2 * line);   // the big contract
  establish(*f, /*pcr=*/0.1 * line);   // refused on standby after the big one
  establish(*f, /*pcr=*/0.0);          // best effort, always admitted
  ASSERT_EQ(f->net->calls_routed(), 3u);

  fail_trunk(*f, f->t0, true);
  f->bed.run_for(sim::milliseconds(1));

  // Big contract + best-effort moved; the small contract found no room.
  EXPECT_EQ(f->net->reroutes(), 2u);
  EXPECT_EQ(f->net->reroutes_failed(), 1u);
  EXPECT_EQ(f->net->calls_on_protection(), 2u);
  EXPECT_GT(f->net->committed_pcr(2, 1), 0.0)
      << "the surviving contract must be committed on the standby trunk";

  auto audit = f->bed.audit(/*include_hops=*/false);
  f->net->audit_invariants(audit);
  EXPECT_TRUE(audit.ok()) << audit.report();
}

TEST(Fabric, CrashRestartSweepsEverySwitchOnThePath)  {
  sig::SignalingConfig cfg;
  cfg.protection.enabled = true;
  auto f = make_fabric(cfg);
  establish(*f);
  establish(*f);
  ASSERT_EQ(f->net->active_calls(), 2u);
  ASSERT_GT(f->sw1->route_count(), 0u);

  f->net->crash_restart();
  f->bed.run_for(sim::milliseconds(10));

  // Volatile state gone, every endpoint told, every switch swept: no
  // data route outlives the call table on *any* switch of the path.
  EXPECT_EQ(f->net->active_calls(), 0u);
  EXPECT_EQ(f->net->restart_acks(), 2u);
  EXPECT_EQ(f->net->stranded_routes(), 0u);
  EXPECT_EQ(f->net->stranded_vcis(), 0u);
  EXPECT_EQ(f->cc_alice->active_calls(), 0u);
  EXPECT_EQ(f->cc_bob->active_calls(), 0u);

  // And the fabric still works: a fresh call connects across the trunk.
  const Established call = establish(*f);
  std::size_t got = 0;
  f->bob->host().set_rx_handler(
      [&](aal::Bytes, const host::RxInfo&) { ++got; });
  f->alice->host().send(call.alice_vc, AalType::kAal5,
                        aal::make_pattern(2000, 3));
  f->bed.run_for(sim::milliseconds(5));
  EXPECT_EQ(got, 1u);

  auto audit = f->bed.audit(/*include_hops=*/false);
  f->net->audit_invariants(audit);
  EXPECT_TRUE(audit.ok()) << audit.report();
}

TEST(Fabric, SignallingRelayRevertsWithTheCall) {
  sig::SignalingConfig cfg;
  cfg.protection.enabled = true;
  auto f = make_fabric(cfg);
  const Established call = establish(*f);

  fail_trunk(*f, f->t0, true);
  f->bed.run_for(sim::milliseconds(1));
  fail_trunk(*f, f->t0, false);
  f->bed.run_for(sig::kRevertDelay + sim::milliseconds(1));

  // Bob's relay left t0 with the call and came back with it (alice's
  // relay lives on the agent's switch and never moves), so neither the
  // relay nor the call keeps a hop on the standby switch.
  EXPECT_EQ(f->net->reverts(), 1u);
  EXPECT_EQ(f->net->sig_reroutes(), 2u);
  EXPECT_EQ(f->sw2->route_count(), 0u);

  // The reverted relay carries the teardown both ways.
  int released = 0;
  const auto count = [&released](const sig::CallControl::CallInfo&,
                                 sig::Cause) { ++released; };
  f->cc_alice->set_released(count);
  f->cc_bob->set_released(count);
  f->cc_alice->release(call.call_id);
  f->bed.run_for(sim::milliseconds(3));
  EXPECT_EQ(released, 2);
  EXPECT_EQ(f->cc_alice->active_calls(), 0u);
  EXPECT_EQ(f->cc_bob->active_calls(), 0u);
  EXPECT_EQ(f->net->active_calls(), 0u);
  EXPECT_EQ(f->net->stranded_routes(), 0u);
}

TEST(Fabric, AuditSweepsOnlyDebrisBesideLiveCalls) {
  sig::SignalingConfig cfg;
  auto f = make_fabric(cfg);
  const Established a = establish(*f);
  const Established b = establish(*f);
  ASSERT_EQ(f->net->active_calls(), 2u);

  // Data routes no call owns, on the ports and VCI range the two live
  // calls use: next to their edge legs and their t0 hops, on the idle
  // t1 port with a VCI a live hop uses on t0, and on sw2 with a port
  // and VCI a live call owns on sw0 and sw1.
  const std::uint16_t first = sig::kFirstDataVci;
  const VcId next{0, static_cast<std::uint16_t>(first + 2)};
  f->sw0->add_route(0, {0, static_cast<std::uint16_t>(first + 7)}, 1, next);
  f->sw0->add_route(2, {0, first}, 0, {0, first});
  f->sw1->add_route(1, next, 0, next);
  f->sw1->add_route(0, next, 1, next);
  f->sw2->add_route(0, {0, first}, 1, {0, first});
  const std::size_t planted = 5;
  EXPECT_EQ(f->net->stranded_routes(), planted);

  // One audit tick removes exactly the debris.
  const std::uint64_t ticks = f->net->audit_ticks();
  const std::uint64_t reclaimed = f->net->routes_reclaimed();
  f->bed.run_for(cfg.audit_period);
  ASSERT_EQ(f->net->audit_ticks(), ticks + 1);
  EXPECT_EQ(f->net->routes_reclaimed(), reclaimed + planted);
  EXPECT_EQ(f->net->stranded_routes(), 0u);
  EXPECT_EQ(f->net->active_calls(), 2u);

  // Both calls still deliver end to end.
  std::size_t got_a = 0, got_b = 0;
  f->bob->host().set_rx_handler(
      [&](aal::Bytes sdu, const host::RxInfo& info) {
        EXPECT_TRUE(aal::verify_pattern(sdu));
        if (info.vc == a.bob_vc) ++got_a;
        if (info.vc == b.bob_vc) ++got_b;
      });
  f->alice->host().send(a.alice_vc, AalType::kAal5, aal::make_pattern(2000, 1));
  f->alice->host().send(b.alice_vc, AalType::kAal5, aal::make_pattern(2000, 2));
  f->bed.run_for(sim::milliseconds(3));
  EXPECT_EQ(got_a, 1u);
  EXPECT_EQ(got_b, 1u);

  auto audit = f->bed.audit(/*include_hops=*/false);
  f->net->audit_invariants(audit);
  EXPECT_TRUE(audit.ok()) << audit.report();
}

// --- chaos soak: trunk flaps ------------------------------------------

struct FlapOutcome {
  std::string fault_log;
  std::uint64_t reroutes = 0;
  std::uint64_t reverts = 0;
  std::uint64_t connected = 0;
  std::size_t net_active = 0;
  std::size_t stranded_vcis = 0;
  std::size_t stranded_routes = 0;
  std::size_t on_protection = 0;
  bool audit_ok = false;
  std::string audit_report;
};

FlapOutcome run_flap_soak(std::uint64_t seed) {
  sig::SignalingConfig cfg;
  cfg.protection.enabled = true;
  cfg.fault_seed = seed * 131 + 17;
  auto f = make_fabric(cfg);

  // Call churn across the trunk for the whole storm.
  sim::Rng churn(seed ^ 0xF1A9);
  int to_place = 60;
  std::function<void()> place = [&] {
    if (to_place-- <= 0) return;
    f->cc_alice->place_call(
        2, AalType::kAal5, 0.0,
        [&](const sig::CallControl::CallInfo& info) {
          const std::uint32_t id = info.call_id;
          f->bed.sim().after(
              sim::microseconds(
                  static_cast<std::int64_t>(churn.uniform_int(200, 3000))),
              [&, id] { f->cc_alice->release(id); });
        });
    f->bed.sim().after(sim::microseconds(400), place);
  };
  f->bed.sim().after(sim::milliseconds(1), place);

  // 200 trunk flaps: every trunk of the triangle, both directions,
  // scheduled by the seeded injector. Calls are mid-handshake, mid-
  // reroute and mid-revert when trunks drop out from under them.
  sim::FaultInjector inj(f->bed.sim(), seed);
  const char* names[3] = {"trunk0.flap", "trunk1.flap", "trunk2.flap"};
  for (std::size_t t = 0; t < 3; ++t) {
    auto [ab, ba] = f->net->trunk_links(t);
    inj.register_point(names[t], [ab, ba](const sim::FaultEvent& e) {
      ab->set_down(e.phase == sim::FaultPhase::kBegin);
      ba->set_down(e.phase == sim::FaultPhase::kBegin);
    });
  }
  inj.chaos(/*start=*/sim::milliseconds(2), /*horizon=*/sim::milliseconds(40),
            /*count=*/200, /*mean_duration=*/sim::microseconds(300));

  // Run far past the horizon: every flap ends, every holdoff/revert
  // timer settles, the audit reclaims whatever the storm half-opened.
  f->bed.run_for(sim::milliseconds(150));

  FlapOutcome out;
  out.fault_log = inj.log_string();
  out.reroutes = f->net->reroutes();
  out.reverts = f->net->reverts();
  out.connected = f->cc_alice->calls_connected();
  out.net_active = f->net->active_calls();
  out.stranded_vcis = f->net->stranded_vcis();
  out.stranded_routes = f->net->stranded_routes();
  out.on_protection = f->net->calls_on_protection();
  auto audit = f->bed.audit(/*include_hops=*/false);
  f->net->audit_invariants(audit);
  out.audit_ok = audit.ok();
  out.audit_report = audit.report();
  return out;
}

TEST(FlapChaos, NothingStrandedAfterTwoHundredFlaps) {
  const FlapOutcome out = run_flap_soak(/*seed=*/6006);

  // The storm was real and protection actually worked during it.
  EXPECT_GT(out.connected, 20u);
  EXPECT_GT(out.reroutes, 0u);
  EXPECT_GT(out.reverts, 0u);

  // And afterwards: no half-open calls, nothing stranded anywhere in
  // the fabric, every conservation book balanced.
  EXPECT_EQ(out.net_active, 0u);
  EXPECT_EQ(out.stranded_vcis, 0u);
  EXPECT_EQ(out.stranded_routes, 0u);
  EXPECT_TRUE(out.audit_ok) << out.audit_report;
}

TEST(FlapChaos, DeterministicUnderTrunkFlaps) {
  const FlapOutcome first = run_flap_soak(7007);
  const FlapOutcome second = run_flap_soak(7007);

  EXPECT_EQ(first.fault_log, second.fault_log);
  EXPECT_EQ(first.reroutes, second.reroutes);
  EXPECT_EQ(first.reverts, second.reverts);
  EXPECT_EQ(first.connected, second.connected);
  EXPECT_EQ(first.stranded_vcis, second.stranded_vcis);
  EXPECT_EQ(first.stranded_routes, second.stranded_routes);
}

}  // namespace
}  // namespace hni
