// Signalling tests: message codec (including decode hardening against
// arbitrary garbage), end-to-end call setup/teardown through the
// switch, rejection causes, VCI lifecycle under churn, traffic
// contracts installed by the network, data flow over switched VCs, and
// the control-plane recovery machinery — T303/T310/T308 timers,
// duplicate idempotence, the status audit, and agent crash-restart.

#include <gtest/gtest.h>

#include "sig/network.hpp"
#include "sim/random.hpp"

namespace hni {
namespace {

using sig::CallState;
using sig::Cause;
using sig::Message;
using sig::MessageType;

TEST(SigMessage, CodecRoundtrip) {
  Message m;
  m.type = MessageType::kSetup;
  m.call_id = 0x12345678;
  m.calling_party = 7;
  m.called_party = 9;
  m.aal = aal::AalType::kAal34;
  m.pcr_cells_per_second = 88301.875;
  m.assigned_vc = {3, 1234};
  m.cause = Cause::kUserBusy;

  const auto back = Message::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, m.type);
  EXPECT_EQ(back->call_id, m.call_id);
  EXPECT_EQ(back->calling_party, m.calling_party);
  EXPECT_EQ(back->called_party, m.called_party);
  EXPECT_EQ(back->aal, m.aal);
  EXPECT_NEAR(back->pcr_cells_per_second, m.pcr_cells_per_second, 1e-5);
  EXPECT_EQ(back->assigned_vc, m.assigned_vc);
  EXPECT_EQ(back->cause, m.cause);
}

TEST(SigMessage, RejectsGarbage) {
  EXPECT_FALSE(Message::decode({}).has_value());
  EXPECT_FALSE(Message::decode(aal::Bytes(5, 0xAB)).has_value());
  aal::Bytes wire = Message{}.encode();
  wire[0] ^= 0xFF;  // break the magic
  EXPECT_FALSE(Message::decode(wire).has_value());
  aal::Bytes wire2 = Message{}.encode();
  wire2[2] = 99;  // invalid type
  EXPECT_FALSE(Message::decode(wire2).has_value());
  aal::Bytes truncated = Message{}.encode();
  truncated.pop_back();
  EXPECT_FALSE(Message::decode(truncated).has_value());
}

TEST(SigMessage, RecoveryFieldsRoundtrip) {
  Message m;
  m.type = MessageType::kStatus;
  m.call_id = 9;
  m.cause = Cause::kRecoveryOnTimerExpiry;
  m.call_state = CallState::kReleasing;
  const auto back = Message::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, MessageType::kStatus);
  EXPECT_EQ(back->cause, Cause::kRecoveryOnTimerExpiry);
  EXPECT_EQ(back->call_state, CallState::kReleasing);

  // Every message type survives the wire, including the new audit and
  // restart types.
  for (int t = 1; t <= 8; ++t) {
    Message probe;
    probe.type = static_cast<MessageType>(t);
    const auto again = Message::decode(probe.encode());
    ASSERT_TRUE(again.has_value()) << "type " << t;
    EXPECT_EQ(again->type, probe.type);
  }
}

// Wire offsets (see messages.cpp): magic 0-1, type 2, call_id 3-6,
// parties 7-10, aal 11, pcr 12-19, vc 20-23, cause 24, state 25.
TEST(SigMessage, DecodeCheckedReportsSpecificCauses) {
  Message m;
  m.call_id = 77;
  const aal::Bytes wire = m.encode();

  aal::Bytes truncated = wire;
  truncated.pop_back();
  auto r = sig::decode_checked(truncated);
  EXPECT_FALSE(r.message.has_value());
  EXPECT_EQ(r.error, Cause::kInvalidMessage);
  EXPECT_EQ(r.call_id_hint, 0u);  // frame guard failed: hint untrusted

  aal::Bytes bad_magic = wire;
  bad_magic[0] ^= 0xFF;
  r = sig::decode_checked(bad_magic);
  EXPECT_FALSE(r.message.has_value());
  EXPECT_EQ(r.error, Cause::kInvalidMessage);
  EXPECT_EQ(r.call_id_hint, 0u);

  // Past the frame guard the call reference is trustworthy: a receiver
  // can answer STATUS for the rejected message.
  aal::Bytes bad_type = wire;
  bad_type[2] = 200;
  r = sig::decode_checked(bad_type);
  EXPECT_FALSE(r.message.has_value());
  EXPECT_EQ(r.error, Cause::kMessageTypeNonExistent);
  EXPECT_EQ(r.call_id_hint, 77u);

  aal::Bytes bad_aal = wire;
  bad_aal[11] = 7;
  r = sig::decode_checked(bad_aal);
  EXPECT_FALSE(r.message.has_value());
  EXPECT_EQ(r.error, Cause::kInvalidContents);
  EXPECT_EQ(r.call_id_hint, 77u);

  aal::Bytes bad_state = wire;
  bad_state[25] = 9;
  r = sig::decode_checked(bad_state);
  EXPECT_FALSE(r.message.has_value());
  EXPECT_EQ(r.error, Cause::kInvalidContents);
}

TEST(SigMessage, DecodeSurvivesFuzzedInput) {
  sim::Rng rng(0xF022);
  // Random blobs of every length around the frame size: decode must
  // never throw, and must never accept a frame that fails the guard.
  for (std::size_t len = 0; len <= 52; ++len) {
    for (int trial = 0; trial < 16; ++trial) {
      aal::Bytes blob(len);
      for (auto& byte : blob) {
        byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      const auto r = sig::decode_checked(blob);
      if (!r.message.has_value()) {
        EXPECT_NE(r.error, Cause::kNormal);
      }
    }
  }
  // Single-byte corruptions of valid frames of every type: either the
  // mutation lands in a don't-care position and decodes, or it is
  // rejected with a non-normal cause — never a crash, never a throw.
  for (int t = 1; t <= 8; ++t) {
    Message m;
    m.type = static_cast<MessageType>(t);
    m.call_id = 0xABCD1234;
    const aal::Bytes wire = m.encode();
    for (std::size_t i = 0; i < wire.size(); ++i) {
      for (std::uint8_t flip : {0x01, 0x80, 0xFF}) {
        aal::Bytes mut = wire;
        mut[i] ^= flip;
        const auto r = sig::decode_checked(mut);
        if (!r.message.has_value()) {
          EXPECT_NE(r.error, Cause::kNormal);
        }
      }
    }
  }
}

// Shared scenario: three endpoints + agent on a 4-port switch.
struct SigBed {
  core::Testbed bed;
  net::Switch& sw;
  core::Station& alice;
  core::Station& bob;
  core::Station& carol;
  sig::SignalingNetwork net;
  sig::CallControl& cc_alice;
  sig::CallControl& cc_bob;
  sig::CallControl& cc_carol;

  explicit SigBed(sig::SignalingConfig cfg = {})
      : sw(bed.add_switch({.ports = 4,
                           .queue_cells = 512,
                           .clp_threshold = 512})),
        alice(bed.add_station({.name = "alice"})),
        bob(bed.add_station({.name = "bob"})),
        carol(bed.add_station({.name = "carol"})),
        net(bed, sw, /*agent_port=*/3, cfg),
        cc_alice(net.attach(alice, 0, 1)),
        cc_bob(net.attach(bob, 1, 2)),
        cc_carol(net.attach(carol, 2, 3)) {}

  // Runs the full invariant audit: per-station datapath books plus the
  // signalling plane's VCI/route/endpoint conservation identities.
  void expect_books_balanced() {
    auto auditor = bed.audit(/*include_hops=*/false);
    net.audit_invariants(auditor);
    EXPECT_TRUE(auditor.ok()) << auditor.report();
  }
};

TEST(Signaling, CallSetupConnectsBothEnds) {
  SigBed s;
  s.cc_bob.set_incoming([](const sig::CallControl::CallInfo&) {
    return true;
  });

  std::optional<sig::CallControl::CallInfo> at_alice;
  s.cc_alice.place_call(2, aal::AalType::kAal5, 0.0,
                        [&](const sig::CallControl::CallInfo& i) {
                          at_alice = i;
                        });
  s.bed.run_for(sim::milliseconds(10));

  ASSERT_TRUE(at_alice.has_value());
  EXPECT_EQ(at_alice->peer, 2);
  EXPECT_GE(at_alice->vc.vci, 1000);
  EXPECT_EQ(s.cc_alice.active_calls(), 1u);
  EXPECT_EQ(s.cc_bob.active_calls(), 1u);
  EXPECT_EQ(s.net.calls_routed(), 1u);
  EXPECT_EQ(s.net.active_calls(), 1u);
}

TEST(Signaling, DataFlowsOverSwitchedCall) {
  SigBed s;
  s.cc_bob.set_incoming([](const sig::CallControl::CallInfo&) {
    return true;
  });
  aal::Bytes got;
  s.bob.host().set_rx_handler(
      [&](aal::Bytes sdu, const host::RxInfo&) { got = std::move(sdu); });

  const aal::Bytes payload = aal::make_pattern(5000, 11);
  s.cc_alice.place_call(2, aal::AalType::kAal5, 0.0,
                        [&](const sig::CallControl::CallInfo& i) {
                          s.alice.host().send(i.vc, i.aal, payload);
                        });
  s.bed.run_for(sim::milliseconds(20));
  EXPECT_EQ(got, payload);
}

TEST(Signaling, RejectionReportsCause) {
  SigBed s;
  s.cc_bob.set_incoming([](const sig::CallControl::CallInfo&) {
    return false;  // busy
  });
  std::optional<Cause> cause;
  s.cc_alice.place_call(
      2, aal::AalType::kAal5, 0.0,
      [](const sig::CallControl::CallInfo&) { FAIL() << "connected?"; },
      [&](std::uint32_t, Cause c) { cause = c; });
  s.bed.run_for(sim::milliseconds(10));
  ASSERT_TRUE(cause.has_value());
  EXPECT_EQ(*cause, Cause::kCallRejected);
  EXPECT_EQ(s.cc_alice.active_calls(), 0u);
  EXPECT_EQ(s.net.active_calls(), 0u);
  EXPECT_EQ(s.cc_alice.calls_failed(), 1u);
}

TEST(Signaling, UnknownPartyRefusedByNetwork) {
  SigBed s;
  std::optional<Cause> cause;
  s.cc_alice.place_call(
      42, aal::AalType::kAal5, 0.0,
      [](const sig::CallControl::CallInfo&) { FAIL(); },
      [&](std::uint32_t, Cause c) { cause = c; });
  s.bed.run_for(sim::milliseconds(10));
  ASSERT_TRUE(cause.has_value());
  EXPECT_EQ(*cause, Cause::kNoRouteToDestination);
  EXPECT_EQ(s.net.calls_refused(), 1u);
}

TEST(Signaling, ReleaseTearsDownRoutesAndNotifiesPeer) {
  SigBed s;
  s.cc_bob.set_incoming([](const sig::CallControl::CallInfo&) {
    return true;
  });
  std::optional<sig::CallControl::CallInfo> call;
  s.cc_alice.place_call(2, aal::AalType::kAal5, 0.0,
                        [&](const sig::CallControl::CallInfo& i) {
                          call = i;
                        });
  std::optional<Cause> bob_released;
  s.cc_bob.set_released(
      [&](const sig::CallControl::CallInfo&, Cause c) { bob_released = c; });
  s.bed.run_for(sim::milliseconds(10));
  ASSERT_TRUE(call.has_value());

  s.cc_alice.release(call->call_id);
  s.bed.run_for(sim::milliseconds(10));

  ASSERT_TRUE(bob_released.has_value());
  EXPECT_EQ(*bob_released, Cause::kNormal);
  EXPECT_EQ(s.cc_alice.active_calls(), 0u);
  EXPECT_EQ(s.cc_bob.active_calls(), 0u);
  EXPECT_EQ(s.net.active_calls(), 0u);

  // The data path is really gone: cells on the old VC are unroutable.
  const auto unroutable_before = s.sw.cells_unroutable();
  s.alice.host().send(call->vc, aal::AalType::kAal5,
                      aal::make_pattern(100, 1));
  s.bed.run_for(sim::milliseconds(10));
  EXPECT_GT(s.sw.cells_unroutable(), unroutable_before);
}

TEST(Signaling, ConcurrentCallsGetDistinctVcs) {
  SigBed s;
  auto accept_all = [](const sig::CallControl::CallInfo&) { return true; };
  s.cc_bob.set_incoming(accept_all);
  s.cc_carol.set_incoming(accept_all);

  std::vector<atm::VcId> vcs;
  s.cc_alice.place_call(2, aal::AalType::kAal5, 0.0,
                        [&](const sig::CallControl::CallInfo& i) {
                          vcs.push_back(i.vc);
                        });
  s.cc_alice.place_call(3, aal::AalType::kAal5, 0.0,
                        [&](const sig::CallControl::CallInfo& i) {
                          vcs.push_back(i.vc);
                        });
  s.bed.run_for(sim::milliseconds(10));

  ASSERT_EQ(vcs.size(), 2u);
  EXPECT_NE(vcs[0], vcs[1]);  // alice's two legs use distinct VCIs
  EXPECT_EQ(s.net.active_calls(), 2u);
}

TEST(Signaling, VcisRecycledAfterRelease) {
  SigBed s;
  s.cc_bob.set_incoming([](const sig::CallControl::CallInfo&) {
    return true;
  });
  std::optional<sig::CallControl::CallInfo> first;
  s.cc_alice.place_call(2, aal::AalType::kAal5, 0.0,
                        [&](const sig::CallControl::CallInfo& i) {
                          first = i;
                        });
  s.bed.run_for(sim::milliseconds(10));
  ASSERT_TRUE(first.has_value());
  s.cc_alice.release(first->call_id);
  s.bed.run_for(sim::milliseconds(10));

  std::optional<sig::CallControl::CallInfo> second;
  s.cc_alice.place_call(2, aal::AalType::kAal5, 0.0,
                        [&](const sig::CallControl::CallInfo& i) {
                          second = i;
                        });
  s.bed.run_for(sim::milliseconds(10));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->vc, first->vc);  // freed VCI reused
}

TEST(Signaling, ContractedCallIsShapedAndPoliced) {
  SigBed s;
  s.cc_bob.set_incoming([](const sig::CallControl::CallInfo&) {
    return true;
  });
  std::size_t got = 0;
  s.bob.host().set_rx_handler(
      [&](aal::Bytes sdu, const host::RxInfo&) {
        EXPECT_TRUE(aal::verify_pattern(sdu));
        ++got;
      });

  // A call with a PCR contract at a quarter of STS-3c. The network
  // installs UPC; the caller's CallControl installs the GCRA shaper —
  // so a greedy burst of PDUs still arrives intact, just paced.
  const double pcr = atm::sts3c().cells_per_second() / 4.0;
  std::optional<sig::CallControl::CallInfo> call;
  s.cc_alice.place_call(2, aal::AalType::kAal5, pcr,
                        [&](const sig::CallControl::CallInfo& i) {
                          call = i;
                          for (int k = 0; k < 5; ++k) {
                            s.alice.host().send(
                                i.vc, i.aal, aal::make_pattern(9180, k));
                          }
                        });
  s.bed.run_for(sim::milliseconds(80));

  EXPECT_EQ(got, 5u);
  EXPECT_EQ(s.sw.cells_policed_dropped(), 0u);
}

TEST(Signaling, SetupLatencyIsMicroseconds) {
  SigBed s;
  s.cc_bob.set_incoming([](const sig::CallControl::CallInfo&) {
    return true;
  });
  sim::Time connected_at = 0;
  const sim::Time start = s.bed.now();
  s.cc_alice.place_call(2, aal::AalType::kAal5, 0.0,
                        [&](const sig::CallControl::CallInfo&) {
                          connected_at = s.bed.now();
                        });
  s.bed.run_for(sim::milliseconds(10));
  ASSERT_GT(connected_at, start);
  // Four signalling frames through switch + agent: well under 1 ms.
  EXPECT_LT(connected_at - start, sim::milliseconds(1));
}

TEST(Signaling, VciSpaceSurvivesCallChurn) {
  SigBed s;
  s.cc_bob.set_incoming([](const sig::CallControl::CallInfo&) {
    return true;
  });

  // More sequential calls than the per-port VCI budget (256): the
  // allocator must recycle released VCIs, not exhaust the space.
  int connected = 0;
  int failed = 0;
  for (int i = 0; i < 300; ++i) {
    std::optional<sig::CallControl::CallInfo> info;
    s.cc_alice.place_call(
        2, aal::AalType::kAal5, 0.0,
        [&](const sig::CallControl::CallInfo& in) {
          ++connected;
          info = in;
        },
        [&](std::uint32_t, Cause) { ++failed; });
    s.bed.run_for(sim::milliseconds(1));
    ASSERT_TRUE(info.has_value()) << "call " << i << " did not connect";
    EXPECT_LT(info->vc.vci, 1000 + 256) << "allocator ran off the end";
    s.cc_alice.release(info->call_id);
    s.bed.run_for(sim::milliseconds(1));
  }

  EXPECT_EQ(connected, 300);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(s.net.active_calls(), 0u);
  EXPECT_EQ(s.net.stranded_vcis(), 0u);
  EXPECT_EQ(s.net.stranded_routes(), 0u);
  s.expect_books_balanced();
}

TEST(SigRecovery, LostSetupIsRetransmitted) {
  SigBed s;
  s.cc_bob.set_incoming([](const sig::CallControl::CallInfo&) {
    return true;
  });
  s.cc_alice.tap().drop_next(1);  // the first SETUP dies on the wire

  bool connected = false;
  s.cc_alice.place_call(2, aal::AalType::kAal5, 0.0,
                        [&](const sig::CallControl::CallInfo&) {
                          connected = true;
                        });
  s.bed.run_for(sim::milliseconds(10));

  EXPECT_TRUE(connected) << "T303 did not recover the lost SETUP";
  EXPECT_GE(s.cc_alice.retransmits(), 1u);
  EXPECT_EQ(s.net.active_calls(), 1u);
  EXPECT_EQ(s.net.stranded_vcis(), 0u);
  s.expect_books_balanced();
}

TEST(SigRecovery, DuplicateSetupDoesNotAllocateTwice) {
  SigBed s;
  s.cc_bob.set_incoming([](const sig::CallControl::CallInfo&) {
    return true;
  });
  s.cc_alice.tap().duplicate_next(1);  // SETUP arrives twice at the agent

  int connects = 0;
  s.cc_alice.place_call(2, aal::AalType::kAal5, 0.0,
                        [&](const sig::CallControl::CallInfo&) {
                          ++connects;
                        });
  s.bed.run_for(sim::milliseconds(10));

  EXPECT_EQ(connects, 1);
  EXPECT_EQ(s.net.duplicate_setups(), 1u);
  EXPECT_EQ(s.net.active_calls(), 1u);
  EXPECT_EQ(s.cc_bob.active_calls(), 1u);
  EXPECT_EQ(s.net.stranded_vcis(), 0u) << "duplicate SETUP leaked a VCI";
  s.expect_books_balanced();
}

TEST(SigRecovery, LostConnectRecoveredByDuplicateSetup) {
  SigBed s;
  s.cc_bob.set_incoming([](const sig::CallControl::CallInfo&) {
    return true;
  });
  s.cc_bob.tap().drop_next(1);  // bob's CONNECT dies on the wire

  std::optional<sig::CallControl::CallInfo> info;
  s.cc_alice.place_call(2, aal::AalType::kAal5, 0.0,
                        [&](const sig::CallControl::CallInfo& i) {
                          info = i;
                        });
  s.bed.run_for(sim::milliseconds(10));

  // Alice's T303 re-SETUP reaches bob as a duplicate; bob re-answers
  // CONNECT from the stored call instead of opening a second VC.
  ASSERT_TRUE(info.has_value()) << "lost CONNECT was never recovered";
  EXPECT_EQ(s.cc_alice.active_calls(), 1u);
  EXPECT_EQ(s.cc_bob.active_calls(), 1u);
  EXPECT_EQ(s.net.active_calls(), 1u);
  EXPECT_EQ(s.net.stranded_vcis(), 0u);
  s.expect_books_balanced();
}

TEST(SigRecovery, AwaitConnectDeadlineFailsCallAndNetworkReclaims) {
  SigBed s;
  s.cc_bob.set_incoming([](const sig::CallControl::CallInfo&) {
    return true;
  });
  s.cc_bob.tap().set_drop_rate(1.0);  // bob can receive but never answer

  std::optional<Cause> failure;
  s.cc_alice.place_call(
      2, aal::AalType::kAal5, 0.0,
      [](const sig::CallControl::CallInfo&) { FAIL() << "connected?"; },
      [&](std::uint32_t, Cause c) { failure = c; });
  s.bed.run_for(sim::milliseconds(60));

  ASSERT_TRUE(failure.has_value()) << "T310 never fired";
  EXPECT_EQ(*failure, Cause::kRecoveryOnTimerExpiry);
  EXPECT_EQ(s.cc_alice.active_calls(), 0u);
  EXPECT_EQ(s.cc_bob.active_calls(), 0u);  // cleared by relayed RELEASE
  EXPECT_EQ(s.net.active_calls(), 0u) << "agent kept a half-open call";
  EXPECT_EQ(s.net.stranded_vcis(), 0u);
  EXPECT_EQ(s.net.stranded_routes(), 0u);
  s.expect_books_balanced();
}

TEST(SigRecovery, UnansweredReleaseForceClearsAndAuditReclaims) {
  SigBed s;
  s.cc_bob.set_incoming([](const sig::CallControl::CallInfo&) {
    return true;
  });
  std::optional<sig::CallControl::CallInfo> info;
  s.cc_alice.place_call(2, aal::AalType::kAal5, 0.0,
                        [&](const sig::CallControl::CallInfo& i) {
                          info = i;
                        });
  s.bed.run_for(sim::milliseconds(10));
  ASSERT_TRUE(info.has_value());

  // From here alice is mute: her RELEASE never reaches the agent. T308
  // retransmits, then force-clears locally; the agent's status audit
  // notices the dead leg (its enquiries go unanswered) and reclaims.
  s.cc_alice.tap().set_drop_rate(1.0);
  std::optional<Cause> released;
  s.cc_alice.set_released(
      [&](const sig::CallControl::CallInfo&, Cause c) { released = c; });
  s.cc_alice.release(info->call_id);
  s.bed.run_for(sim::milliseconds(60));

  ASSERT_TRUE(released.has_value()) << "T308 never force-cleared";
  EXPECT_EQ(*released, Cause::kRecoveryOnTimerExpiry);
  EXPECT_GE(s.cc_alice.retransmits(), 4u);  // every T308 retry used
  EXPECT_EQ(s.cc_alice.active_calls(), 0u);
  EXPECT_EQ(s.cc_bob.active_calls(), 0u);  // audit RELEASE reached bob
  EXPECT_EQ(s.net.active_calls(), 0u);
  EXPECT_GE(s.net.calls_reclaimed(), 1u);
  EXPECT_EQ(s.net.stranded_vcis(), 0u);
  EXPECT_EQ(s.net.stranded_routes(), 0u);
  s.expect_books_balanced();
}

TEST(SigRecovery, StatusAuditReclaimsHalfOpenCallWithoutEndpointTimers) {
  // Endpoint recovery off (the ablation): a lost CONNECT leaves alice
  // calling forever and the agent's call half-open. Only the agent's
  // status audit can clean this up.
  sig::SignalingConfig cfg;
  cfg.endpoint.retransmit = false;
  SigBed s(cfg);
  s.cc_bob.set_incoming([](const sig::CallControl::CallInfo&) {
    return true;
  });
  s.cc_bob.tap().drop_next(1);  // CONNECT lost; nobody retransmits

  std::optional<Cause> failure;
  s.cc_alice.place_call(
      2, aal::AalType::kAal5, 0.0,
      [](const sig::CallControl::CallInfo&) { FAIL() << "connected?"; },
      [&](std::uint32_t, Cause c) { failure = c; });
  s.bed.run_for(sim::milliseconds(40));

  ASSERT_TRUE(failure.has_value()) << "audit never reclaimed the call";
  EXPECT_EQ(*failure, Cause::kRecoveryOnTimerExpiry);
  EXPECT_GE(s.net.calls_reclaimed(), 1u);
  EXPECT_GE(s.net.audit_ticks(), 1u);
  EXPECT_EQ(s.cc_alice.active_calls(), 0u);
  EXPECT_EQ(s.cc_bob.active_calls(), 0u);
  EXPECT_EQ(s.net.active_calls(), 0u);
  EXPECT_EQ(s.net.stranded_vcis(), 0u);
  EXPECT_EQ(s.net.stranded_routes(), 0u);
  s.expect_books_balanced();
}

TEST(SigRecovery, MalformedFrameAnsweredWithStatus) {
  SigBed s;
  // Hand the agent a frame whose guard passes but whose type is bogus:
  // it must count it, answer STATUS (cause 97) on the hinted call, and
  // carry on — the endpoint's decoder must likewise survive the reply
  // path. Injected directly on alice's signalling VC toward the agent.
  Message bogus;
  bogus.call_id = 4242;
  aal::Bytes wire = bogus.encode();
  wire[2] = 200;  // nonexistent message type
  s.alice.host().send({0, 5}, aal::AalType::kAal5, wire);
  s.bed.run_for(sim::milliseconds(5));

  EXPECT_EQ(s.net.malformed_frames(), 1u);
  EXPECT_EQ(s.net.active_calls(), 0u);
  s.expect_books_balanced();
}

TEST(SigRecovery, AgentCrashRestartClearsEndpointsAndFabric) {
  SigBed s;
  auto accept_all = [](const sig::CallControl::CallInfo&) { return true; };
  s.cc_bob.set_incoming(accept_all);
  s.cc_carol.set_incoming(accept_all);

  int established = 0;
  auto count = [&](const sig::CallControl::CallInfo&) { ++established; };
  s.cc_alice.place_call(2, aal::AalType::kAal5, 0.0, count);
  s.cc_alice.place_call(3, aal::AalType::kAal5, 0.0, count);
  s.bed.run_for(sim::milliseconds(10));
  ASSERT_EQ(established, 2);

  s.net.crash_restart();
  s.bed.run_for(sim::milliseconds(20));

  // RESTART told every endpoint to clear; every endpoint acked; the
  // fabric sweep removed the orphan routes the crash left behind.
  EXPECT_EQ(s.net.active_calls(), 0u);
  EXPECT_EQ(s.cc_alice.active_calls(), 0u);
  EXPECT_EQ(s.cc_bob.active_calls(), 0u);
  EXPECT_EQ(s.cc_carol.active_calls(), 0u);
  EXPECT_EQ(s.net.restart_acks(), 3u);
  EXPECT_GE(s.net.routes_reclaimed(), 4u);  // two duplex routes dropped
  EXPECT_EQ(s.net.stranded_routes(), 0u);
  EXPECT_EQ(s.net.stranded_vcis(), 0u);

  // The plane is usable again, and the wiped allocator hands out the
  // base VCI afresh.
  std::optional<sig::CallControl::CallInfo> again;
  s.cc_alice.place_call(2, aal::AalType::kAal5, 0.0,
                        [&](const sig::CallControl::CallInfo& i) {
                          again = i;
                        });
  s.bed.run_for(sim::milliseconds(10));
  ASSERT_TRUE(again.has_value()) << "network unusable after restart";
  EXPECT_EQ(again->vc.vci, 1000);
  s.expect_books_balanced();
}

}  // namespace
}  // namespace hni
