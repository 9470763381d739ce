// ScenarioSpec: text codec round-trips, hard parse errors, acceptance
// arithmetic, and (small simulations) same-seed determinism and honest
// delivery books of the fleet runner itself.

#include <gtest/gtest.h>

#include "core/scenario_spec.hpp"
#include "sig/fleet.hpp"

namespace hni::core {
namespace {

ScenarioSpec rich_spec() {
  ScenarioSpec s;
  s.name = "codec-exercise";
  s.plane = "fairness";
  s.topology = ScenarioSpec::Topology::kLine;
  s.switches = 4;
  s.seed = 99;
  s.warmup = sim::milliseconds(3);
  s.measure = sim::milliseconds(24);
  s.smoke_measure = sim::milliseconds(6);
  s.sts12 = true;
  s.queue_cells = 512;
  s.epd_threshold = 384;
  s.scheduler = ScenarioSpec::Scheduler::kDwrr;
  s.wred = true;
  s.efci_rm = true;
  s.per_vc_books = true;
  s.cac_utilization = 0.85;
  s.sig_audit = false;
  TrafficSpec t;
  t.kind = TrafficSpec::Kind::kOnOff;
  t.rate_mbps = 42.5;
  t.sdu_bytes = 9180;
  t.pcr_mbps = 60;
  t.scr_mbps = 45;
  t.weight = 4;
  t.abr = true;
  s.traffic = {t};
  s.fault.cell_loss_rate = 1e-3;
  s.fault.loss_burst_cells = 8;
  s.fault.flap_period = sim::milliseconds(10);
  s.fault.flap_down = sim::milliseconds(1);
  s.fault.sig_drop_rate = 0.05;
  s.accept.min_goodput_mbps = 30;
  s.accept.min_delivery_ratio = 0.9;
  s.accept.max_latency_us = 800;
  s.accept.min_jain = 0.95;
  s.accept.audit_clean = false;
  s.accept.determinism = true;
  s.accept.digest = "deadbeefdeadbeef";
  return s;
}

TEST(ScenarioCodec, ToTextParsesBackIdentically) {
  const ScenarioSpec a = rich_spec();
  ScenarioSpec b;
  std::string error;
  ASSERT_TRUE(parse_scenario(a.to_text(), b, error)) << error;
  // Canonical-form round trip: the re-emitted text must match exactly,
  // which covers every field the codec carries.
  EXPECT_EQ(a.to_text(), b.to_text());
  // Spot-check fields that the text form encodes indirectly.
  EXPECT_EQ(b.switches, 4u);
  EXPECT_EQ(b.measure_window(true), sim::milliseconds(6));
  EXPECT_EQ(b.traffic.at(0).weight, 4);
  EXPECT_TRUE(b.traffic.at(0).abr);
  EXPECT_FALSE(b.sig_audit);
  EXPECT_FALSE(b.accept.audit_clean);
}

TEST(ScenarioCodec, EveryBuiltinRoundTrips) {
  for (const ScenarioSpec& s : sig::builtin_scenarios()) {
    ScenarioSpec back;
    std::string error;
    ASSERT_TRUE(parse_scenario(s.to_text(), back, error))
        << s.name << ": " << error;
    EXPECT_EQ(s.to_text(), back.to_text()) << s.name;
  }
}

TEST(ScenarioCodec, UnknownKeyIsAHardError) {
  ScenarioSpec out;
  std::string error;
  EXPECT_FALSE(parse_scenario(
      "name = typo\nsource = cbr rate_mbps=10 sdu=1500\nqueue_cels = 64\n",
      out, error));
  EXPECT_NE(error.find("unknown key"), std::string::npos) << error;
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(ScenarioCodec, UnknownSourceAttributeIsAHardError) {
  ScenarioSpec out;
  std::string error;
  EXPECT_FALSE(parse_scenario(
      "name = typo\nsource = cbr rate_mpbs=10\n", out, error));
  EXPECT_NE(error.find("rate_mpbs"), std::string::npos) << error;
}

TEST(ScenarioCodec, SourcelessSpecIsRejected) {
  ScenarioSpec out;
  std::string error;
  EXPECT_FALSE(parse_scenario("name = empty\n", out, error));
  EXPECT_NE(error.find("no traffic"), std::string::npos) << error;
}

TEST(ScenarioCodec, FlapLongerThanPeriodIsRejected) {
  ScenarioSpec out;
  std::string error;
  EXPECT_FALSE(parse_scenario(
      "name = bad-flap\nsource = cbr rate_mbps=10 sdu=1500\n"
      "flap_period_us = 100\nflap_down_us = 100\n",
      out, error));
  EXPECT_NE(error.find("flap_down_us"), std::string::npos) << error;
}

TEST(ScenarioCodec, SduShorterThanItsTagIsRejected) {
  ScenarioSpec out;
  std::string error;
  for (const char* sdu : {"0", "7"}) {
    EXPECT_FALSE(parse_scenario(
        std::string("name = tiny\nsource = cbr rate_mbps=10 sdu=") + sdu +
            "\n",
        out, error))
        << sdu;
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("sdu"), std::string::npos) << error;
  }
  EXPECT_TRUE(parse_scenario("name = ok\nsource = cbr rate_mbps=10 sdu=8\n",
                             out, error))
      << error;
}

TEST(ScenarioCodec, NonPositiveRateIsRejectedUnlessGreedy) {
  ScenarioSpec out;
  std::string error;
  for (const char* src : {"cbr rate_mbps=0", "poisson rate_mbps=-5",
                          "onoff rate_mbps=0"}) {
    EXPECT_FALSE(parse_scenario(
        std::string("name = idle\nplane = x\nsource = ") + src + "\n", out,
        error))
        << src;
    EXPECT_NE(error.find("line 3"), std::string::npos) << error;
    EXPECT_NE(error.find("rate_mbps"), std::string::npos) << error;
  }
  // A greedy source saturates instead; its rate is not read.
  EXPECT_TRUE(parse_scenario(
      "name = sat\nsource = greedy rate_mbps=0 sdu=9180\n", out, error))
      << error;
}

TEST(ScenarioCodec, CommentsAndBlanksAreIgnored) {
  ScenarioSpec out;
  std::string error;
  ASSERT_TRUE(parse_scenario(
      "# header comment\n\nname = commented   # trailing\n"
      "source = cbr rate_mbps=10 sdu=1500\n",
      out, error))
      << error;
  EXPECT_EQ(out.name, "commented");
}

ScenarioResult passing_result() {
  ScenarioResult r;
  r.ran = true;
  r.goodput_mbps = 80;
  r.offered_mbps = 82;
  r.delivery_ratio = 0.98;
  r.latency_mean_us = 120;
  r.jain_weighted = 0.99;
  r.audit_clean = true;
  return r;
}

TEST(Acceptance, CleanRunPasses) {
  ScenarioSpec s;
  s.traffic.emplace_back();
  s.accept.min_goodput_mbps = 70;
  s.accept.min_delivery_ratio = 0.95;
  s.accept.max_latency_us = 500;
  s.accept.min_jain = 0.95;
  ScenarioResult r = passing_result();
  evaluate_acceptance(s, r);
  EXPECT_TRUE(r.accepted()) << (r.failures.empty() ? "" : r.failures[0]);
}

TEST(Acceptance, EachFloorFailsIndependently) {
  ScenarioSpec s;
  s.traffic.emplace_back();
  s.accept.min_goodput_mbps = 70;
  s.accept.min_delivery_ratio = 0.95;
  s.accept.max_latency_us = 500;
  s.accept.min_jain = 0.95;

  ScenarioResult r = passing_result();
  r.goodput_mbps = 60;
  r.delivery_ratio = 0.5;
  r.latency_mean_us = 900;
  r.jain_weighted = 0.4;
  r.audit_clean = false;
  evaluate_acceptance(s, r);
  EXPECT_FALSE(r.accepted());
  // One failure line per missed criterion: four floors plus the audit.
  EXPECT_EQ(r.failures.size(), 5u);
}

TEST(Acceptance, SetupFailureIsItsOwnMiss) {
  ScenarioSpec s;
  s.traffic.emplace_back();
  ScenarioResult r;
  r.ran = false;
  r.setup_error = "call setup failed";
  evaluate_acceptance(s, r);
  EXPECT_FALSE(r.accepted());
  ASSERT_FALSE(r.failures.empty());
  EXPECT_NE(r.failures[0].find("call setup failed"), std::string::npos);
}

TEST(Acceptance, DigestMismatchFails) {
  ScenarioSpec s;
  s.traffic.emplace_back();
  s.accept.digest = "0000000000000000";
  ScenarioResult r = passing_result();
  r.digest = "1111111111111111";
  evaluate_acceptance(s, r);
  EXPECT_FALSE(r.accepted());
}

TEST(Acceptance, DeterminismMismatchFails) {
  ScenarioSpec s;
  s.traffic.emplace_back();
  s.accept.determinism = true;
  ScenarioResult r = passing_result();
  r.digest = "1111111111111111";
  r.digest_rerun = "2222222222222222";
  evaluate_acceptance(s, r);
  EXPECT_FALSE(r.accepted());
}

TEST(Acceptance, DeliveryAboveOneFails) {
  ScenarioSpec s;  // no delivery floor: the ceiling is always on
  ScenarioResult r = passing_result();
  r.delivery_ratio = 1.083;
  evaluate_acceptance(s, r);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_NE(r.failures[0].find("above 1"), std::string::npos)
      << r.failures[0];

  ScenarioResult exact = passing_result();
  exact.delivery_ratio = 1.0;
  evaluate_acceptance(s, exact);
  EXPECT_TRUE(exact.accepted());
}

TEST(Jain, KnownValues) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({5.0, 5.0, 5.0}), 1.0);
  // One user hogging everything among n: index = 1/n.
  EXPECT_NEAR(jain_index({9.0, 0.0, 0.0}), 1.0 / 3.0, 1e-12);
}

// The one simulating test: the fleet runner must be bit-deterministic
// for a fixed spec, and the digest must move when the seed does.
TEST(FleetRunner, SameSpecSameDigest) {
  ScenarioSpec s;
  s.name = "det-probe";
  s.topology = ScenarioSpec::Topology::kP2p;
  s.seed = 5;
  s.warmup = sim::milliseconds(1);
  s.measure = sim::milliseconds(4);
  s.accept.determinism = true;
  TrafficSpec t;
  t.kind = TrafficSpec::Kind::kPoisson;
  t.rate_mbps = 40;
  t.sdu_bytes = 1500;
  s.traffic = {t};

  const ScenarioResult a = sig::run_scenario(s, /*smoke=*/true);
  EXPECT_TRUE(a.accepted()) << (a.failures.empty() ? "" : a.failures[0]);
  EXPECT_FALSE(a.digest.empty());
  EXPECT_EQ(a.digest, a.digest_rerun);

  ScenarioSpec reseeded = s;
  reseeded.seed = 6;
  const ScenarioResult b = sig::run_scenario(reseeded, /*smoke=*/true);
  EXPECT_NE(a.digest, b.digest);
}

// Delivery counts only SDUs generated inside the window, so it cannot
// exceed 1 — also on the two builtins where SDUs sent during warmup
// land inside the window.
TEST(FleetRunner, DeliveryNeverAboveOne) {
  for (const char* name : {"determinism-p2p", "mux-sig-loss"}) {
    ScenarioSpec s;
    std::string error;
    ASSERT_TRUE(sig::find_scenario(name, "", s, error)) << error;
    const ScenarioResult r = sig::run_scenario(s, /*smoke=*/true);
    EXPECT_TRUE(r.accepted()) << name << ": "
                              << (r.failures.empty() ? "" : r.failures[0]);
    EXPECT_GT(r.delivery_ratio, 0.9) << name;
    EXPECT_LE(r.delivery_ratio, 1.0) << name;
  }
}

}  // namespace
}  // namespace hni::core
