// Golden-determinism digests: same-seed scenarios must stay
// byte-identical across kernel changes.
//
// Each canonical scenario runs with the tracer armed; every trace
// event (the full wire-level event order) and a telemetry snapshot are
// folded into a single FNV-1a *behaviour* digest. The digest is
// compared against a committed golden file in tests/golden/ — any
// change to event ordering, loss draws, or counter arithmetic shows up
// as a digest mismatch, which is exactly the alarm we want when
// touching the event kernel: the (time, insertion-seq) contract makes
// these bytes part of the public behaviour.
//
// How many kernel events it took to produce that behaviour is a
// separate book: the kernel's per-layer event census, recorded exactly
// in tests/golden/<scenario>.events. A change that only schedules
// fewer events (say, an idle slot no longer simulated) rewrites the
// .events file and leaves the .digest byte-identical.
//
// Regenerating (only after an *intentional* behaviour or event-count
// change, with the diff reviewed):
//
//   HNI_UPDATE_GOLDEN=1 ./build/tests/determinism_digest_test
//
// then commit the rewritten tests/golden/*.digest and *.events files.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "core/testbed.hpp"
#include "net/traffic.hpp"
#include "sig/network.hpp"
#include "sim/simulator.hpp"

#ifndef HNI_GOLDEN_DIR
#error "HNI_GOLDEN_DIR must point at tests/golden"
#endif

namespace hni {
namespace {

// --- Canonical scenarios --------------------------------------------
//
// Each arms the testbed tracer, runs a workload, and digests the
// complete trace stream + the full telemetry snapshot + the endpoint
// truths; the kernel's event census is recorded beside the digest.
// Parameters are frozen: changing them invalidates the goldens by
// design.

struct ScenarioOutput {
  std::string digest;
  std::string events;  // the census, rendered as in the .events file
  std::uint64_t trace_events = 0;
};

// "total N" then one "layer N" line per census layer.
std::string render_census(const sim::Simulator& sim) {
  std::string out = "total " + std::to_string(sim.events_fired()) + "\n";
  for (std::size_t i = 0; i < sim::kLayerCount; ++i) {
    out += std::string(sim::layer_name(static_cast<sim::Layer>(i))) + " " +
           std::to_string(sim.census()[i]) + "\n";
  }
  return out;
}

// Scenario 3: a protected multi-switch fabric riding out a trunk flap.
// Exercises the whole resilience event vocabulary — OAM continuity
// heartbeats, switch AIS insertion, endpoint defect reports, the
// protection reroute and the wait-to-restore revert — so any
// nondeterminism in those paths lands in the digest.
ScenarioOutput run_tandem_protection() {
  core::Testbed bed;
  std::vector<sim::TraceEvent> trace;
  bed.tracer().collect_into(trace);

  net::SwitchConfig swc{.ports = 4, .queue_cells = 512,
                        .clp_threshold = 512};
  net::Switch& sw0 = bed.add_switch(swc);
  net::Switch& sw1 = bed.add_switch(swc);
  net::Switch& sw2 = bed.add_switch(swc);
  sig::SignalingConfig cfg;
  cfg.protection.enabled = true;
  sig::SignalingNetwork net(bed, {&sw0, &sw1, &sw2},
                            /*agent_switch=*/0, /*agent_port=*/3, cfg);
  const std::size_t t0 = net.add_trunk(0, 1, 1, 1);  // primary
  net.add_trunk(0, 2, 2, 0);
  net.add_trunk(2, 1, 1, 2);

  core::StationConfig sc;
  sc.nic.cc.enabled = true;
  sc.name = "tx";
  core::Station& a = bed.add_station(sc);
  sc.name = "rx";
  core::Station& b = bed.add_station(sc);
  sig::CallControl& cca = net.attach(a, /*sw=*/0, /*port=*/0, /*party=*/1);
  sig::CallControl& ccb = net.attach(b, /*sw=*/1, /*port=*/0, /*party=*/2);
  ccb.set_incoming([](const sig::CallControl::CallInfo&) { return true; });

  std::optional<atm::VcId> vc;
  cca.place_call(2, aal::AalType::kAal5, 0.0,
                 [&vc](const sig::CallControl::CallInfo& i) { vc = i.vc; });
  bed.run_for(sim::milliseconds(2));

  std::uint64_t received = 0;
  std::uint64_t pattern_failures = 0;
  b.host().set_rx_handler([&](aal::Bytes sdu, const host::RxInfo&) {
    ++received;
    if (!aal::verify_pattern(sdu)) ++pattern_failures;
  });
  net::SduSource::Config traffic;
  traffic.mode = net::SduSource::Mode::kCbr;
  traffic.sdu_bytes = 1500;
  traffic.interval = sim::microseconds(200);
  traffic.seed = 13;
  net::SduSource source(bed.sim(), traffic, [&](aal::Bytes sdu) {
    return a.host().send(*vc, aal::AalType::kAal5, std::move(sdu));
  });
  a.host().set_tx_ready([&source] { source.notify_ready(); });
  source.start();

  // One full failure/recovery cycle on the primary trunk: the flap is
  // longer than the holdoff (reroute fires) and the recovery outlasts
  // the wait-to-restore (revert fires).
  const auto [ab, ba] = net.trunk_links(t0);
  bed.sim().after(sim::milliseconds(3), [ab, ba] {
    ab->set_down(true);
    ba->set_down(true);
  });
  bed.sim().after(sim::milliseconds(6), [ab, ba] {
    ab->set_down(false);
    ba->set_down(false);
  });
  bed.run_for(sim::milliseconds(12));

  core::Digest d;
  core::fold_trace(d, trace);
  d.fold_string(bed.metrics().to_json());
  d.fold(static_cast<std::uint64_t>(bed.now()));
  d.fold(received);
  d.fold(pattern_failures);
  d.fold(net.reroutes());
  d.fold(net.reverts());
  d.fold(net.stranded_vcis());
  d.fold(net.stranded_routes());

  ScenarioOutput out;
  out.digest = d.hex();
  out.events = render_census(bed.sim());
  out.trace_events = trace.size();
  return out;
}

ScenarioOutput run_canonical(const char* name) {
  if (std::string(name) == "tandem-protection") {
    return run_tandem_protection();
  }
  core::Testbed bed;
  std::vector<sim::TraceEvent> trace;
  bed.tracer().collect_into(trace);

  core::StationConfig sc;
  sc.name = "tx";
  core::Station& a = bed.add_station(sc);
  sc.name = "rx";
  core::Station& b = bed.add_station(sc);

  const atm::VcId vc{0, 100};
  net::SduSource::Config traffic;
  net::LossModel loss;
  const bool lossy = std::string(name) == "p2p-lossy-poisson";
  if (lossy) {
    // Scenario 1: Poisson arrivals over a bursty-loss, jittery link.
    traffic.mode = net::SduSource::Mode::kPoisson;
    traffic.sdu_bytes = 2000;
    traffic.interval = sim::microseconds(300);
    traffic.seed = 7;
    loss.cell_loss_rate = 0.001;
    loss.mean_burst_cells = 3.0;
    loss.cdv_jitter = sim::microseconds(2);
  } else {
    // Scenario 2: CBR over a clean link — pure FIFO-ordering workload.
    traffic.mode = net::SduSource::Mode::kCbr;
    traffic.sdu_bytes = 4096;
    traffic.interval = sim::microseconds(500);
    traffic.seed = 11;
  }
  bed.connect(a, b, loss, sim::microseconds(5));
  a.nic().open_vc(vc, aal::AalType::kAal5);
  b.nic().open_vc(vc, aal::AalType::kAal5);

  std::uint64_t received = 0;
  std::uint64_t pattern_failures = 0;
  b.host().set_rx_handler([&](aal::Bytes sdu, const host::RxInfo&) {
    ++received;
    if (!aal::verify_pattern(sdu)) ++pattern_failures;
  });
  net::SduSource source(bed.sim(), traffic, [&](aal::Bytes sdu) {
    return a.host().send(vc, aal::AalType::kAal5, std::move(sdu));
  });
  a.host().set_tx_ready([&source] { source.notify_ready(); });
  source.start();
  bed.run_for(sim::milliseconds(10));

  core::Digest d;
  core::fold_trace(d, trace);
  // Telemetry snapshot: every counter and gauge in the scenario, in
  // registration order, names included (a renamed or vanished
  // instrument is a behaviour change too).
  d.fold_string(bed.metrics().to_json());
  // Endpoint truths.
  d.fold(static_cast<std::uint64_t>(bed.now()));
  d.fold(received);
  d.fold(pattern_failures);

  ScenarioOutput out;
  out.digest = d.hex();
  out.events = render_census(bed.sim());
  out.trace_events = trace.size();
  return out;
}

// --- Golden-file plumbing -------------------------------------------

std::string golden_path(const std::string& name, const char* ext) {
  return std::string(HNI_GOLDEN_DIR) + "/" + name + ext;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  ASSERT_TRUE(out.good()) << "failed writing " << path;
}

bool update_mode() {
  const char* env = std::getenv("HNI_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void check_scenario(const char* name) {
  const ScenarioOutput first = run_canonical(name);
  const ScenarioOutput second = run_canonical(name);

  // In-process reproducibility: two same-seed runs, byte-identical
  // trace + telemetry, independent of any committed file.
  ASSERT_EQ(first.digest, second.digest)
      << "scenario '" << name << "' is not deterministic in-process";
  ASSERT_EQ(first.events, second.events)
      << "scenario '" << name << "' event census is not deterministic";
  ASSERT_GT(first.trace_events, 0u) << "tracer captured nothing";

  const std::string digest_path = golden_path(name, ".digest");
  const std::string events_path = golden_path(name, ".events");
  if (update_mode()) {
    write_file(digest_path, first.digest + "\n");
    write_file(events_path, first.events);
    GTEST_LOG_(INFO) << "updated golden for " << name << ": "
                     << first.digest << "\n" << first.events;
    return;
  }
  const std::string golden = read_file(digest_path);
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << digest_path
      << " — run with HNI_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(first.digest + "\n", golden)
      << "scenario '" << name << "' diverged from the committed golden "
      << "behaviour digest. If this change is intentional, regenerate "
      << "with\n  HNI_UPDATE_GOLDEN=1 ./build/tests/determinism_digest_test"
      << "\nand commit the new tests/golden/" << name << ".digest";
  EXPECT_EQ(first.events, read_file(events_path))
      << "scenario '" << name << "' event census differs from "
      << events_path << ". If the kernel now schedules a different "
      << "number of events for the same behaviour, regenerate with\n"
      << "  HNI_UPDATE_GOLDEN=1 ./build/tests/determinism_digest_test\n"
      << "and record the before/after counts.";
}

TEST(GoldenDeterminism, P2pLossyPoisson) {
  check_scenario("p2p-lossy-poisson");
}

TEST(GoldenDeterminism, P2pCleanCbr) { check_scenario("p2p-clean-cbr"); }

TEST(GoldenDeterminism, TandemProtection) {
  check_scenario("tandem-protection");
}

}  // namespace
}  // namespace hni
