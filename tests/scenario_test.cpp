// ScenarioSpec: text codec round-trips, hard parse errors, acceptance
// arithmetic, and (small simulations) same-seed determinism and honest
// delivery books of the fleet runner itself.

#include <gtest/gtest.h>

#include <filesystem>

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
  t.min_mbps = 20;
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
  s.accept.max_restore_us = 1500;
  s.accept.ablation = true;
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
  EXPECT_EQ(b.traffic.at(0).min_mbps, 20);
  EXPECT_EQ(b.accept.max_restore_us, 1500);
  EXPECT_TRUE(b.accept.ablation);
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

// The committed .scn files, the ones carrying ablation and min_mbps
// among them, survive parse -> to_text -> parse unchanged.
TEST(ScenarioCodec, EveryScnFileRoundTrips) {
  std::string all_text;
  for (const auto& entry :
       std::filesystem::directory_iterator(HNI_SCENARIO_DIR)) {
    if (entry.path().extension() != ".scn") continue;
    ScenarioSpec a, b;
    std::string error;
    ASSERT_TRUE(load_scenario_file(entry.path().string(), a, error)) << error;
    ASSERT_TRUE(parse_scenario(a.to_text(), b, error))
        << entry.path() << ": " << error;
    EXPECT_EQ(a.to_text(), b.to_text()) << entry.path();
    all_text += a.to_text();
  }
  EXPECT_NE(all_text.find("ablation = on"), std::string::npos);
  EXPECT_NE(all_text.find(" min_mbps="), std::string::npos);
}

// Out-of-range numbers are spec errors (exit 2 in bench_fleet), never a
// run that passes on nonsense, hangs or aborts.
TEST(ScenarioCodec, OutOfRangeValuesAreRejected) {
  using namespace std::string_literals;
  const std::string head =
      "name = range\nsource = cbr rate_mbps=10 sdu=1500\n";
  // Switch 0 numbers every source, the agent and the trunks with an
  // 8-bit port: one source past kMaxSwitchedSources is a spec error.
  const auto sources = [](std::size_t n) {
    std::string lines = "topology = mux\n";
    for (std::size_t i = 0; i < n; ++i) {
      lines += "source = cbr rate_mbps=1 sdu=1500\n";
    }
    return lines;
  };
  struct Case {
    std::string line;
    const char* named;  // the error must name the key
  };
  const Case cases[] = {
      {sources(kMaxSwitchedSources), "source"},  // 254 with the head's
      {"measure_us = -1", "measure_us"},  // strtoull took the sign
      {"warmup_us = +5", "warmup_us"},
      {"warmup_us = 20000000000000", "warmup_us"},  // ps overflow
      {"measure_us = 9223372036855", "measure_us"},
      {"smoke_measure_us = 99999999999999999999", "smoke_measure_us"},
      {"flap_period_us = 9300000000000", "flap_period_us"},
      {"flap_down_us = -2", "flap_down_us"},
      {"seed = -3", "seed"},
      {"queue_cells = -1", "queue_cells"},
      {"loss_rate = 2", "loss_rate"},
      {"loss_rate = 1", "loss_rate"},
      {"loss_rate = -0.5", "loss_rate"},
      {"loss_rate = nan", "loss_rate"},
      {"loss_burst = -1", "loss_burst"},
      {"source = cbr rate_mbps=10 sdu=1500 pcr_mbps=-5", "pcr_mbps"},
      {"source = cbr rate_mbps=10 sdu=1500 scr_mbps=-1", "scr_mbps"},
      {"source = cbr rate_mbps=10 sdu=1500 min_mbps=-1", "min_mbps"},
      {"source = cbr rate_mbps=inf sdu=1500", "rate_mbps"},
      {"accept_goodput_mbps = -1", "accept_goodput_mbps"},
      {"accept_delivery = -0.1", "accept_delivery"},
      {"accept_latency_us = -1", "accept_latency_us"},
      {"accept_jain = -1", "accept_jain"},
      {"accept_restore_us = -1", "accept_restore_us"},
      {"switches = 3", "switches"},  // p2p: to_text would drop it
      {"accept_restore_us = 500", "accept_restore_us"},  // nothing flaps
      {"ablation = on", "ablation"},  // no floor to miss
  };
  for (const Case& c : cases) {
    ScenarioSpec out;
    std::string error;
    EXPECT_FALSE(parse_scenario(head + c.line + "\n", out, error)) << c.line;
    EXPECT_NE(error.find(c.named), std::string::npos)
        << c.line << " -> " << error;
  }
  for (const std::string& edge :
       {"loss_rate = 0"s, "loss_rate = 0.999"s, "measure_us = 9223372036854"s,
        "topology = line\nswitches = 3"s, "accept_jain = 0"s,
        "ablation = on\naccept_jain = 0.9"s,
        sources(kMaxSwitchedSources - 1)}) {
    ScenarioSpec out;
    std::string error;
    EXPECT_TRUE(parse_scenario(head + edge + "\n", out, error))
        << edge << " -> " << error;
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
  s.traffic[0].min_mbps = 70;
  s.accept.min_goodput_mbps = 70;
  s.accept.min_delivery_ratio = 0.95;
  s.accept.max_latency_us = 500;
  s.accept.min_jain = 0.95;
  s.accept.max_restore_us = 5000;

  ScenarioResult r = passing_result();
  r.goodput_mbps = 60;
  r.delivery_ratio = 0.5;
  r.latency_mean_us = 900;
  r.jain_weighted = 0.4;
  r.per_flow_mbps = {60};
  r.outages = 2;
  r.restore_max_us = 5500;
  r.audit_clean = false;
  evaluate_acceptance(s, r);
  EXPECT_FALSE(r.accepted());
  // One failure line per missed criterion: four floors, the source
  // floor, the restore ceiling, and the audit.
  EXPECT_EQ(r.failures.size(), 7u);
}

// An ablation passes when every floor it sets is missed, fails once per
// floor still reached, and keeps the audit as it is.
TEST(Acceptance, AblationMustMissEveryFloor) {
  ScenarioSpec s;
  s.traffic.emplace_back();
  s.traffic[0].min_mbps = 50;
  s.accept.min_goodput_mbps = 70;
  s.accept.min_delivery_ratio = 0.95;
  s.accept.min_jain = 0.95;
  s.accept.ablation = true;

  ScenarioResult collapsed = passing_result();
  collapsed.goodput_mbps = 10;
  collapsed.delivery_ratio = 0.3;
  collapsed.jain_weighted = 0.4;
  collapsed.per_flow_mbps = {10};
  ScenarioResult dirty = collapsed;
  evaluate_acceptance(s, collapsed);
  EXPECT_TRUE(collapsed.accepted()) << collapsed.failures.at(0);

  ScenarioResult held = passing_result();
  held.per_flow_mbps = {80};
  evaluate_acceptance(s, held);
  EXPECT_EQ(held.failures.size(), 4u);

  dirty.audit_clean = false;
  evaluate_acceptance(s, dirty);
  ASSERT_EQ(dirty.failures.size(), 1u);
  EXPECT_NE(dirty.failures[0].find("audit"), std::string::npos);
}

TEST(Acceptance, RestoreCeilingNeedsAnOutage) {
  ScenarioSpec s;
  s.traffic.emplace_back();
  s.accept.max_restore_us = 5000;
  ScenarioResult r = passing_result();
  r.outages = 3;
  r.restore_max_us = 1200;
  evaluate_acceptance(s, r);
  EXPECT_TRUE(r.accepted());

  // A flapping row that never saw an outage restore proves nothing.
  ScenarioResult none = passing_result();
  evaluate_acceptance(s, none);
  EXPECT_FALSE(none.accepted());
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

// With one VC there is nothing to schedule: FIFO, round-robin and DWRR
// must deliver the same bytes at the same times.
TEST(FleetRunner, OneSourceDeliversAlikeUnderEveryScheduler) {
  ScenarioSpec s;
  s.name = "sched-diff";
  s.topology = ScenarioSpec::Topology::kMux;
  s.seed = 9;
  s.warmup = sim::milliseconds(1);
  s.measure = sim::milliseconds(10);
  TrafficSpec t;
  t.kind = TrafficSpec::Kind::kPoisson;
  t.rate_mbps = 110;
  t.sdu_bytes = 9180;
  s.traffic = {t};
  std::vector<ScenarioResult> runs;
  for (const auto sched :
       {ScenarioSpec::Scheduler::kFifo, ScenarioSpec::Scheduler::kRoundRobin,
        ScenarioSpec::Scheduler::kDwrr}) {
    s.scheduler = sched;
    runs.push_back(sig::run_scenario(s));
    ASSERT_TRUE(runs.back().accepted()) << runs.back().failures.at(0);
  }
  EXPECT_GT(runs[0].goodput_mbps, 50);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].per_flow_mbps, runs[0].per_flow_mbps) << i;
    EXPECT_EQ(runs[i].delivery_ratio, runs[0].delivery_ratio) << i;
    EXPECT_EQ(runs[i].latency_mean_us, runs[0].latency_mean_us) << i;
    EXPECT_EQ(runs[i].latency_max_us, runs[0].latency_max_us) << i;
  }
}

// Restore time runs from each in-window cut to the first delivery past
// the in-flight guard: at least the outage, and one per cut.
TEST(FleetRunner, FlapRestoreIsTimedFromTheCut) {
  ScenarioSpec s;
  s.name = "restore-probe";
  s.seed = 3;
  s.warmup = sim::milliseconds(1);
  s.measure = sim::milliseconds(20);
  s.fault.flap_period = sim::milliseconds(5);
  s.fault.flap_down = sim::milliseconds(1);
  s.accept.max_restore_us = 4000;
  TrafficSpec t;
  t.rate_mbps = 40;
  s.traffic = {t};
  const ScenarioResult r = sig::run_scenario(s);
  EXPECT_TRUE(r.accepted()) << r.failures.at(0);
  EXPECT_EQ(r.outages, 4u);  // cuts at 5, 10, 15, 20 ms
  EXPECT_GE(r.restore_max_us, 1000);
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
