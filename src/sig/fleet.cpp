#include "sig/fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "atm/phy.hpp"
#include "core/scenario.hpp"
#include "net/traffic.hpp"
#include "sig/network.hpp"

namespace hni::sig {

namespace {

using core::ScenarioResult;
using core::ScenarioSpec;
using core::TrafficSpec;

constexpr std::uint16_t kSinkParty = 200;
constexpr double kPayloadBitsPerCell = 48.0 * 8.0;

double mbps_to_cells(double mbps) {
  return mbps * 1e6 / kPayloadBitsPerCell;
}

net::SduSource::Config source_config(const ScenarioSpec& spec,
                                     const TrafficSpec& t, std::size_t i) {
  net::SduSource::Config cfg;
  cfg.sdu_bytes = t.sdu_bytes;
  cfg.seed = spec.seed * 1009 + i;
  const double bits = static_cast<double>(t.sdu_bytes) * 8.0;
  const sim::Time gap = static_cast<sim::Time>(
      bits / (t.rate_mbps * 1e6) * static_cast<double>(sim::kSecond));
  switch (t.kind) {
    case TrafficSpec::Kind::kCbr:
      cfg.mode = net::SduSource::Mode::kCbr;
      // A tiny per-flow detune: equal CBR periods would otherwise keep
      // the same phase against each other and against a discard gate,
      // so one flow would meet a full queue every time and the shares
      // would depend on start order instead of on the scheduler.
      cfg.interval = static_cast<sim::Time>(
          static_cast<double>(gap) * (1.0 + 0.0137 * static_cast<double>(i)));
      break;
    case TrafficSpec::Kind::kPoisson:
      cfg.mode = net::SduSource::Mode::kPoisson;
      cfg.interval = gap;
      break;
    case TrafficSpec::Kind::kOnOff:
      cfg.mode = net::SduSource::Mode::kOnOff;  // 50% duty at 2x peak
      cfg.interval = gap / 2;
      cfg.mean_on = sim::milliseconds(2);
      cfg.mean_off = sim::milliseconds(2);
      break;
    case TrafficSpec::Kind::kGreedy:
      cfg.mode = net::SduSource::Mode::kGreedy;
      break;
  }
  return cfg;
}

net::SwitchConfig switch_config(const ScenarioSpec& spec, std::size_t ports) {
  net::SwitchConfig swc;
  swc.ports = ports;
  swc.port_rate = spec.sts12 ? atm::sts12c() : atm::sts3c();
  swc.queue_cells = spec.queue_cells;
  swc.clp_threshold =
      spec.wred ? spec.queue_cells * 7 / 8 : spec.queue_cells;
  swc.epd_threshold = spec.epd_threshold;
  switch (spec.scheduler) {
    case ScenarioSpec::Scheduler::kFifo:
      swc.scheduler = net::SwitchScheduler::kFifo;
      break;
    case ScenarioSpec::Scheduler::kRoundRobin:
      swc.scheduler = net::SwitchScheduler::kRoundRobin;
      break;
    case ScenarioSpec::Scheduler::kDwrr:
      swc.scheduler = net::SwitchScheduler::kDwrr;
      break;
  }
  if (spec.per_vc_books) {
    // Per-VC accounting: gate fresh frames on the VC's own queue once
    // it holds a 192-cell 9180-byte PDU plus slack (at the 2048-cell
    // pool the builtins use), so a slow flow keeps a standing backlog
    // between service turns; cap residency one PDU past the gate, so an
    // admitted frame never overruns mid-PDU; keep the shared pool above
    // the sum of the caps, so only the per-VC books bind.
    swc.vc_epd_cells = spec.queue_cells / 8;
    swc.vc_queue_cells = spec.queue_cells / 4;
    swc.epd_threshold = 0;
    swc.clp_threshold = spec.queue_cells;
  }
  if (spec.wred && !spec.per_vc_books) {
    swc.wred.enabled = true;
    swc.wred.min_cells = spec.queue_cells * 6 / 10;
    swc.wred.max_cells = spec.queue_cells;
    swc.wred.max_p = 0.05;
    swc.wred.clp1_min_cells = spec.queue_cells / 4;
    swc.wred.clp1_max_cells = spec.queue_cells / 2;
    swc.wred.clp1_max_p = 1.0;
  }
  if (spec.efci_rm || spec.abr_loop) {
    swc.efci_threshold = spec.queue_cells / 5;
  }
  swc.abr.enabled = spec.abr_loop;
  return swc;
}

// The p2p topology is a translation onto the one two-station runner.
core::P2pConfig p2p_config(const ScenarioSpec& spec, bool smoke,
                           bool want_digest) {
  core::P2pConfig cfg;
  if (spec.sts12) {
    cfg.station.nic.line = atm::sts12c();
    cfg.station.nic.with_clock(50e6);
    cfg.station.host.cpu.clock_hz = 400e6;
    cfg.station.host.cpu.cpi = 1.0;
    cfg.station.host.max_inflight_tx = 64;
  }
  cfg.vc = {0, 32};
  for (std::size_t i = 0; i < spec.traffic.size(); ++i) {
    cfg.flows.push_back({source_config(spec, spec.traffic[i], i),
                         mbps_to_cells(spec.traffic[i].pcr_mbps)});
  }
  cfg.loss.cell_loss_rate = spec.fault.cell_loss_rate;
  cfg.loss.mean_burst_cells = spec.fault.loss_burst_cells;
  cfg.flap_period = spec.fault.flap_period;
  cfg.flap_down = spec.fault.flap_down;
  cfg.warmup = spec.warmup;
  cfg.measure = spec.measure_window(smoke);
  cfg.digest = want_digest;
  return cfg;
}

ScenarioResult run_switched(const ScenarioSpec& spec, bool smoke,
                            bool want_digest) {
  ScenarioResult r;
  const std::size_t n = spec.traffic.size();
  const std::size_t nsw = spec.topology == ScenarioSpec::Topology::kMux
                              ? 1
                              : spec.topology == ScenarioSpec::Topology::kLine
                                    ? spec.switches
                                    : 3;
  if (spec.topology == ScenarioSpec::Topology::kLine && nsw < 2) {
    r.setup_error = "line topology needs switches >= 2";
    return r;
  }

  core::Testbed bed;
  std::vector<sim::TraceEvent> trace;
  if (want_digest) bed.tracer().collect_into(trace);

  // Port plan: switch 0 carries the sources (0..n-1), the agent (n)
  // and its trunk(s) (n+1, n+2); the sink lives on the far switch. The
  // parser caps n at kMaxSwitchedSources so every port fits the label.
  std::vector<net::Switch*> sws;
  for (std::size_t s = 0; s < nsw; ++s) {
    std::size_t ports;
    if (s == 0) {
      // sources 0..n-1, agent on n, then the sink (mux) or trunk(s).
      ports = spec.topology == ScenarioSpec::Topology::kTriangle ? n + 3
                                                                 : n + 2;
    } else if (spec.topology == ScenarioSpec::Topology::kTriangle) {
      ports = s == 1 ? 3 : 2;  // sw1: sink + 2 trunks; sw2: 2 trunks
    } else {
      ports = 2;  // line interior/end: trunk(s) + possibly the sink
    }
    sws.push_back(&bed.add_switch(switch_config(spec, ports)));
  }

  SignalingConfig cfg;
  cfg.cac_utilization = spec.cac_utilization;
  cfg.protection.enabled = spec.protection;
  if (!spec.sig_audit) cfg.audit_period = 0;
  if (spec.cac_utilization > 0) cfg.endpoint.setup_retry_limit = 6;
  cfg.fault_seed = spec.seed * 31 + 7;
  // Switch 0's port map: sources on 0..n-1; mux puts the sink on n and
  // the agent on n+1, the trunked topologies put the agent on n and
  // their trunk(s) on n+1 (and n+2).
  const std::size_t agent_port =
      spec.topology == ScenarioSpec::Topology::kMux ? n + 1 : n;
  SignalingNetwork net(bed, sws, /*agent_switch=*/0, agent_port, cfg);

  net::LossModel trunk_loss;
  trunk_loss.cell_loss_rate = spec.fault.cell_loss_rate;
  trunk_loss.mean_burst_cells = spec.fault.loss_burst_cells;
  std::size_t flap_trunk = 0;
  if (spec.topology == ScenarioSpec::Topology::kLine) {
    for (std::size_t s = 0; s + 1 < nsw; ++s) {
      const std::size_t tx_port = s == 0 ? n + 1 : 1;
      const std::size_t t = net.add_trunk(s, tx_port, s + 1, 0, trunk_loss);
      if (s == 0) flap_trunk = t;
    }
  } else if (spec.topology == ScenarioSpec::Topology::kTriangle) {
    flap_trunk = net.add_trunk(0, n + 1, 1, 1, trunk_loss);  // primary
    net.add_trunk(0, n + 2, 2, 0, trunk_loss);               // standby legs
    net.add_trunk(2, 1, 1, 2, trunk_loss);
  }

  core::StationConfig stc;
  stc.nic.congestion.enabled = spec.efci_rm || spec.abr_loop;
  stc.nic.congestion.explicit_rate = spec.abr_loop;
  stc.nic.cc.enabled = spec.protection;

  std::vector<core::Station*> srcs;
  std::vector<CallControl*> cc_src;
  for (std::size_t i = 0; i < n; ++i) {
    stc.name = "fleet-src" + std::to_string(i);
    srcs.push_back(&bed.add_station(stc));
    cc_src.push_back(&net.attach(*srcs[i], /*sw=*/0, /*port=*/i,
                                 static_cast<std::uint16_t>(1 + i)));
  }
  stc.name = "fleet-sink";
  core::Station& sink = bed.add_station(stc);
  std::size_t sink_sw = 0, sink_port = n;  // mux: same switch as sources
  if (spec.topology == ScenarioSpec::Topology::kLine) {
    sink_sw = nsw - 1;
    sink_port = 1;
  } else if (spec.topology == ScenarioSpec::Topology::kTriangle) {
    sink_sw = 1;
    sink_port = 0;
  }
  CallControl& cc_sink = net.attach(sink, sink_sw, sink_port, kSinkParty);

  // The sink accepts everything and maps each accepted call's VC back
  // to the caller's flow index (party 1+i).
  core::Meas meas(n);
  std::unordered_map<std::uint16_t, std::size_t> vci_flow;
  cc_sink.set_incoming(
      [](const CallControl::CallInfo&) { return true; },
      [&vci_flow](const CallControl::CallInfo& info) {
        vci_flow[info.vc.vci] = static_cast<std::size_t>(info.peer) - 1;
      });

  if (spec.fault.sig_drop_rate > 0) {
    net.agent_tap().set_drop_rate(spec.fault.sig_drop_rate);
    cc_sink.tap().set_drop_rate(spec.fault.sig_drop_rate);
    for (CallControl* cc : cc_src) {
      cc->tap().set_drop_rate(spec.fault.sig_drop_rate);
    }
  }

  // Place one call per flow. A failed attempt (chaos-dropped beyond the
  // protocol timers) is re-placed, and a call the audit reclaims
  // mid-run is re-established the same way — under signalling faults
  // the *session*, not any single call, is the unit under test. Both
  // loops are bounded so a dead network cannot spin forever.
  std::vector<std::optional<atm::VcId>> src_vc(n);
  std::vector<std::uint32_t> call_ids(n, 0);
  std::vector<unsigned> attempts(n, 0);
  bool tearing_down = false;
  std::function<void(std::size_t)> place;
  place = [&](std::size_t i) {
    const TrafficSpec& t = spec.traffic[i];
    TrafficDescriptor td;
    td.pcr_cells_per_second = mbps_to_cells(t.pcr_mbps);
    td.scr_cells_per_second = mbps_to_cells(t.scr_mbps);
    td.weight = t.weight;
    td.abr = t.abr;
    call_ids[i] = cc_src[i]->place_call(
        kSinkParty, aal::AalType::kAal5, td,
        [&src_vc, i](const CallControl::CallInfo& info) {
          src_vc[i] = info.vc;
        },
        [&, i](std::uint32_t, Cause) {
          if (!tearing_down && ++attempts[i] < 64) place(i);
        });
  };
  for (std::size_t i = 0; i < n; ++i) {
    cc_src[i]->set_released(
        [&, i](const CallControl::CallInfo&, Cause) {
          src_vc[i].reset();
          if (!tearing_down && ++attempts[i] < 64) place(i);
        });
    place(i);
  }

  sim::Time grace = sim::milliseconds(10);
  if (spec.fault.sig_drop_rate > 0) grace += sim::milliseconds(40);
  if (spec.cac_utilization > 0) grace += sim::milliseconds(20);
  bed.run_for(grace);
  // Many sources queue their SETUPs at the one agent, so the last calls
  // can connect after the grace: keep stepping until all have, within
  // a bound. A run whose calls connect within the grace steps no
  // further, so its timeline is unchanged.
  const auto all_connected = [&src_vc] {
    return std::all_of(src_vc.begin(), src_vc.end(),
                       [](const auto& vc) { return vc.has_value(); });
  };
  for (sim::Time extra = 0;
       extra < sim::milliseconds(500) && !all_connected();
       extra += sim::milliseconds(1)) {
    bed.run_for(sim::milliseconds(1));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!src_vc[i]) {
      r.setup_error = "call " + std::to_string(i) + " failed to connect";
      return r;
    }
  }
  r.calls_connected = n;

  sink.host().set_rx_handler([&](aal::Bytes sdu, const host::RxInfo& info) {
    const auto it = vci_flow.find(info.vc.vci);
    if (it == vci_flow.end()) return;
    meas.deliver(it->second, sdu, info);
  });

  core::Meas::Sources gens;
  for (std::size_t i = 0; i < n; ++i) {
    core::Station* st = srcs[i];
    // Send to whatever VC the flow's *current* call carries: after a
    // chaos-reclaimed call re-establishes, traffic follows. Refusals
    // while disconnected count as offered-load drops.
    gens.push_back(std::make_unique<net::SduSource>(
        bed.sim(), source_config(spec, spec.traffic[i], i),
        [st, &src_vc, i](aal::Bytes sdu) {
          if (!src_vc[i]) return false;
          return st->host().send(*src_vc[i], aal::AalType::kAal5,
                                 std::move(sdu));
        }));
    st->host().set_tx_ready([g = gens.back().get()] { g->notify_ready(); });
    gens.back()->start();
  }

  const sim::Time window = spec.measure_window(smoke);
  if (nsw > 1) {
    const auto [ab, ba] = net.trunk_links(flap_trunk);
    core::schedule_flaps(bed, spec.fault.flap_period, spec.fault.flap_down,
                         ab, ba, spec.warmup + window, meas);
  }
  meas.run(bed, gens, spec.warmup, window);
  tearing_down = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (src_vc[i]) cc_src[i]->release(call_ids[i]);
  }
  bed.run_for(sim::milliseconds(25));  // release handshakes + audit sweep

  r.ran = true;
  core::finish_result(spec, r, meas.books());
  r.reroutes = net.reroutes();
  r.stranded = net.stranded_vcis() + net.stranded_routes();
  auto auditor = bed.audit(/*include_hops=*/true);
  net.audit_invariants(auditor);
  r.audit_clean = auditor.ok() && net.active_calls() == 0;
  if (!auditor.ok()) std::fputs(auditor.report().c_str(), stderr);
  if (want_digest) {
    core::Digest d;
    core::fold_run(d, trace, bed, meas.books().flow_bytes);
    r.digest = d.hex();
  }
  return r;
}

ScenarioResult run_once(const ScenarioSpec& spec, bool smoke,
                        bool want_digest) {
  ScenarioResult r;
  if (spec.traffic.empty()) {
    r.setup_error = "no traffic sources";
    return r;
  }
  if (spec.topology != ScenarioSpec::Topology::kP2p) {
    return run_switched(spec, smoke, want_digest);
  }
  const auto greedy = std::count_if(
      spec.traffic.begin(), spec.traffic.end(), [](const TrafficSpec& t) {
        return t.kind == TrafficSpec::Kind::kGreedy;
      });
  if (greedy > 1) {
    r.setup_error = "p2p supports at most one greedy source";
    return r;
  }
  const core::P2pResult p =
      core::run_p2p(p2p_config(spec, smoke, want_digest));
  r.ran = true;
  core::finish_result(spec, r, p.window);
  r.audit_clean = p.audit_clean;
  r.digest = p.digest;
  return r;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec, bool smoke) {
  const bool want_digest =
      spec.accept.determinism || !spec.accept.digest.empty();
  ScenarioResult r = run_once(spec, smoke, want_digest);
  if (spec.accept.determinism && r.ran) {
    const ScenarioResult rerun = run_once(spec, smoke, /*want_digest=*/true);
    r.digest_rerun = rerun.digest;
  }
  core::evaluate_acceptance(spec, r);
  return r;
}

namespace {

TrafficSpec source(TrafficSpec::Kind kind, double rate_mbps,
                   std::size_t sdu_bytes, double pcr_mbps = 0,
                   double scr_mbps = 0, std::uint16_t weight = 1,
                   bool abr = false) {
  TrafficSpec t;
  t.kind = kind;
  t.rate_mbps = rate_mbps;
  t.sdu_bytes = sdu_bytes;
  t.pcr_mbps = pcr_mbps;
  t.scr_mbps = scr_mbps;
  t.weight = weight;
  t.abr = abr;
  return t;
}

std::vector<ScenarioSpec> make_builtins() {
  using K = TrafficSpec::Kind;
  std::vector<ScenarioSpec> all;

  {  // Clean CBR point-to-point: the sanity row every plane builds on.
    ScenarioSpec s;
    s.name = "p2p-cbr-clean";
    s.plane = "baseline";
    s.topology = ScenarioSpec::Topology::kP2p;
    s.seed = 11;
    s.measure = sim::milliseconds(20);
    s.smoke_measure = sim::milliseconds(6);
    s.traffic = {source(K::kCbr, 80, 1500)};
    s.accept.min_goodput_mbps = 70;
    s.accept.min_delivery_ratio = 0.95;
    s.accept.max_latency_us = 500;
    all.push_back(s);
  }
  {  // Greedy throughput ceiling at STS-12c.
    ScenarioSpec s;
    s.name = "p2p-greedy-sts12c";
    s.plane = "throughput";
    s.topology = ScenarioSpec::Topology::kP2p;
    s.sts12 = true;
    s.seed = 12;
    s.measure = sim::milliseconds(10);
    s.smoke_measure = sim::milliseconds(4);
    s.traffic = {source(K::kGreedy, 0, 9180)};
    s.accept.min_goodput_mbps = 300;
    all.push_back(s);
  }
  {  // Correlated cell loss: AAL5 PDUs die whole, books still balance.
    ScenarioSpec s;
    s.name = "p2p-loss-burst";
    s.plane = "fault-recovery";
    s.topology = ScenarioSpec::Topology::kP2p;
    s.seed = 13;
    s.measure = sim::milliseconds(40);
    s.smoke_measure = sim::milliseconds(12);
    s.traffic = {source(K::kCbr, 60, 1500)};
    s.fault.cell_loss_rate = 1e-3;
    s.fault.loss_burst_cells = 8;
    s.accept.min_delivery_ratio = 0.90;
    s.accept.min_goodput_mbps = 45;
    all.push_back(s);
  }
  {  // Link flaps: down 1 ms in every 10; AIS/RDI pause + resume.
    ScenarioSpec s;
    s.name = "p2p-linkflap-recovery";
    s.plane = "fault-recovery";
    s.topology = ScenarioSpec::Topology::kP2p;
    s.seed = 14;
    s.measure = sim::milliseconds(40);
    s.smoke_measure = sim::milliseconds(20);
    s.traffic = {source(K::kCbr, 40, 1500)};
    s.fault.flap_period = sim::milliseconds(10);
    s.fault.flap_down = sim::milliseconds(1);
    s.accept.min_delivery_ratio = 0.60;
    s.accept.min_goodput_mbps = 20;
    s.accept.max_restore_us = 1800;
    all.push_back(s);
  }
  {  // Signalled calls under 5% signalling loss: timers carry setup.
    ScenarioSpec s;
    s.name = "mux-sig-loss";
    s.plane = "signalling-fault";
    s.topology = ScenarioSpec::Topology::kMux;
    s.seed = 15;
    s.measure = sim::milliseconds(20);
    s.smoke_measure = sim::milliseconds(8);
    s.traffic = {source(K::kPoisson, 20, 1500), source(K::kPoisson, 20, 1500),
                 source(K::kPoisson, 20, 1500), source(K::kPoisson, 20, 1500)};
    s.fault.sig_drop_rate = 0.05;
    s.accept.min_delivery_ratio = 0.85;
    s.accept.min_goodput_mbps = 50;
    all.push_back(s);
  }
  {  // Heavy signalling chaos: 20% of every signalling message dies.
    ScenarioSpec s;
    s.name = "mux-sig-chaos";
    s.plane = "signalling-fault";
    s.topology = ScenarioSpec::Topology::kMux;
    s.seed = 16;
    s.measure = sim::milliseconds(20);
    s.smoke_measure = sim::milliseconds(8);
    s.traffic = {source(K::kPoisson, 20, 1500), source(K::kPoisson, 20, 1500)};
    s.fault.sig_drop_rate = 0.20;
    s.accept.min_delivery_ratio = 0.80;
    all.push_back(s);
  }
  {  // CAC admission: three contracted CBR calls that all fit.
    ScenarioSpec s;
    s.name = "mux-cac-contracts";
    s.plane = "signalling-fault";
    s.topology = ScenarioSpec::Topology::kMux;
    s.seed = 17;
    s.measure = sim::milliseconds(20);
    s.smoke_measure = sim::milliseconds(8);
    s.cac_utilization = 0.9;
    s.traffic = {source(K::kCbr, 30, 1500, /*pcr=*/36),
                 source(K::kCbr, 30, 1500, /*pcr=*/36),
                 source(K::kCbr, 30, 1500, /*pcr=*/36)};
    s.accept.min_delivery_ratio = 0.90;
    s.accept.min_goodput_mbps = 70;
    all.push_back(s);
  }
  {  // The overload plane on and off across offered load: six sources
     // into one STS-3c port, their 1x shares summing to its AAL5 ceiling
     // at 9180-byte PDUs. Two CBR calls hold a PCR contract 5% over the
     // 1x share at every load; two on/off VBR and two Poisson UBR flows
     // are elastic. On: EPD, colour-aware WRED, round-robin and the
     // EFCI/RM loop; goodput at 4x holds within 15% of 1x. Off: one
     // tail-drop FIFO; at 4x the CBR calls and the shares collapse (the
     // ablation row). Floors sit at 0.85 of the measured goodput and CBR
     // rate, the 4x one at 0.85 of 1x's.
    constexpr double kCeiling = 135.1;
    const double port =  // payload Mb/s of the port's cell rate
        atm::sts3c().cells_per_second() * kPayloadBitsPerCell / 1e6;
    struct Load {
      const char* name;
      double load, on_floor, off_floor, cbr_floor;
    };
    for (const bool on : {true, false}) {
      for (const Load& l :
           {Load{"0.5x", 0.5, 74, 74, 8.8}, Load{"1x", 1, 106, 91, 16.9},
            Load{"2x", 2, 106, 61, 16.3}, Load{"4x", 4, 106, 0, 12.5}}) {
        ScenarioSpec s;
        s.name = std::string("mux-overload-") + (on ? "on-" : "off-") + l.name;
        s.plane = "overload";
        s.topology = ScenarioSpec::Topology::kMux;
        s.seed = 30;
        s.warmup = sim::milliseconds(10);
        s.measure = sim::milliseconds(200);
        s.smoke_measure = sim::milliseconds(100);
        s.epd_threshold = on ? 512 : 0;
        s.wred = s.efci_rm = on;
        s.scheduler = on ? ScenarioSpec::Scheduler::kRoundRobin
                         : ScenarioSpec::Scheduler::kFifo;
        const auto mix = [&](K kind, double share) {
          return source(kind, share * kCeiling * l.load, 9180);
        };
        s.traffic = {mix(K::kCbr, 0.15),   mix(K::kCbr, 0.15),
                     mix(K::kOnOff, 0.20), mix(K::kOnOff, 0.10),
                     mix(K::kPoisson, 0.20), mix(K::kPoisson, 0.20)};
        s.traffic[0].pcr_mbps = s.traffic[1].pcr_mbps = 1.05 * 0.15 * port;
        s.accept.min_goodput_mbps = on ? l.on_floor : l.off_floor;
        s.accept.ablation = !on && l.load == 4;
        if (on || s.accept.ablation) {
          s.traffic[0].min_mbps = s.traffic[1].min_mbps = l.cbr_floor;
        }
        if (s.accept.ablation) s.accept.min_jain = 0.82;  // on-4x: 0.96
        all.push_back(s);
      }
    }
  }
  {  // 2x overload with the frame-aware discard plane on.
    ScenarioSpec s;
    s.name = "mux-overload-epd";
    s.plane = "overload";
    s.topology = ScenarioSpec::Topology::kMux;
    s.seed = 18;
    s.measure = sim::milliseconds(60);
    s.smoke_measure = sim::milliseconds(20);
    s.epd_threshold = 512;
    s.wred = true;
    s.scheduler = ScenarioSpec::Scheduler::kRoundRobin;
    s.traffic = {source(K::kPoisson, 65, 9180), source(K::kPoisson, 65, 9180),
                 source(K::kPoisson, 65, 9180), source(K::kPoisson, 65, 9180)};
    s.accept.min_goodput_mbps = 116;
    all.push_back(s);
    // The discard-policy sweep on the same plant and seed, each on a
    // shared FIFO without WRED: tail drop, EPD with too little headroom
    // above its threshold, EPD alone, EPD in a 128-cell buffer.
    struct Policy {
      const char* name;
      std::size_t queue, epd;
      double floor;
    };
    for (const Policy& p : {Policy{"taildrop", 1024, 0, 72},
                            Policy{"undersized", 1024, 896, 97},
                            Policy{"fifo", 1024, 512, 114},
                            Policy{"small-buffer", 128, 64, 79}}) {
      s.name = std::string("mux-epd-") + p.name;
      s.queue_cells = p.queue;
      s.epd_threshold = p.epd;
      s.wred = false;
      s.scheduler = ScenarioSpec::Scheduler::kFifo;
      s.accept.min_goodput_mbps = p.floor;
      all.push_back(s);
    }
  }
  {  // 2x overload with the closed EFCI/RM loop throttling sources.
    ScenarioSpec s;
    s.name = "mux-overload-closedloop";
    s.plane = "overload";
    s.topology = ScenarioSpec::Topology::kMux;
    s.seed = 19;
    s.measure = sim::milliseconds(60);
    s.smoke_measure = sim::milliseconds(20);
    s.epd_threshold = 512;
    s.wred = true;
    s.efci_rm = true;
    s.scheduler = ScenarioSpec::Scheduler::kRoundRobin;
    s.traffic = {source(K::kCbr, 45, 9180), source(K::kCbr, 45, 9180),
                 source(K::kCbr, 45, 9180), source(K::kCbr, 45, 9180),
                 source(K::kCbr, 45, 9180), source(K::kCbr, 45, 9180)};
    s.accept.min_goodput_mbps = 95;
    all.push_back(s);
  }
  {  // DWRR weighted shares: grants, not arrival order, set delivery.
    ScenarioSpec s;
    s.name = "mux-fairness-dwrr";
    s.plane = "fairness";
    s.topology = ScenarioSpec::Topology::kMux;
    s.seed = 20;
    s.measure = sim::milliseconds(100);
    s.smoke_measure = sim::milliseconds(40);
    s.queue_cells = 2048;
    s.scheduler = ScenarioSpec::Scheduler::kDwrr;
    s.per_vc_books = true;
    s.traffic = {source(K::kCbr, 90, 9180, 0, 0, /*weight=*/1),
                 source(K::kCbr, 90, 9180, 0, 0, /*weight=*/2),
                 source(K::kCbr, 90, 9180, 0, 0, /*weight=*/4)};
    s.accept.min_jain = 0.998;
    all.push_back(s);
  }
  {  // ERICA explicit-rate ABR: four equal participants at 2x.
    ScenarioSpec s;
    s.name = "mux-fairness-abr";
    s.plane = "fairness";
    s.topology = ScenarioSpec::Topology::kMux;
    s.seed = 21;
    s.measure = sim::milliseconds(100);
    s.smoke_measure = sim::milliseconds(40);
    s.epd_threshold = 512;
    s.wred = true;
    s.abr_loop = true;
    s.scheduler = ScenarioSpec::Scheduler::kDwrr;
    s.traffic = {
        source(K::kPoisson, 67, 9180, 0, 0, 1, /*abr=*/true),
        source(K::kPoisson, 67, 9180, 0, 0, 1, /*abr=*/true),
        source(K::kPoisson, 67, 9180, 0, 0, 1, /*abr=*/true),
        source(K::kPoisson, 67, 9180, 0, 0, 1, /*abr=*/true)};
    s.accept.min_jain = 0.95;
    all.push_back(s);
  }
  {  // Three-switch line: multi-hop signalled routing + trunk loss.
    ScenarioSpec s;
    s.name = "line3-tandem-cbr";
    s.plane = "fabric";
    s.topology = ScenarioSpec::Topology::kLine;
    s.switches = 3;
    s.seed = 22;
    s.measure = sim::milliseconds(20);
    s.smoke_measure = sim::milliseconds(8);
    s.traffic = {source(K::kCbr, 30, 1500), source(K::kCbr, 30, 1500)};
    s.fault.cell_loss_rate = 1e-4;
    s.accept.min_delivery_ratio = 0.90;
    s.accept.max_latency_us = 2000;
    all.push_back(s);
  }
  {  // Protection switching rides out a flapping primary trunk.
    ScenarioSpec s;
    s.name = "triangle-protection-flap";
    s.plane = "protection";
    s.topology = ScenarioSpec::Topology::kTriangle;
    s.seed = 23;
    s.measure = sim::milliseconds(80);
    s.smoke_measure = sim::milliseconds(40);
    s.protection = true;
    s.sig_audit = false;  // a 13 ms outage must not trip the reclaimer
    s.fault.flap_period = sim::milliseconds(20);
    s.fault.flap_down = sim::milliseconds(13);
    // PCR 2.5x the offered rate: a protected contract needs restoration
    // headroom — after an outage the shaper can only drain the paused
    // backlog at PCR, so a tight contract never catches back up.
    s.traffic = {source(K::kCbr, 20, 1500, /*pcr=*/50),
                 source(K::kCbr, 20, 1500, /*pcr=*/50),
                 source(K::kCbr, 20, 1500, /*pcr=*/50)};
    s.accept.min_goodput_mbps = 49.3;
    s.accept.min_delivery_ratio = 0.83;
    s.accept.max_restore_us = 640;
    all.push_back(s);
    // Protection off: every 13 ms outage is eaten in full.
    s.name = "triangle-protection-off";
    s.protection = false;
    s.accept.min_goodput_mbps = 0;
    s.accept.min_delivery_ratio = 0.40;
    s.accept.max_restore_us = 0;
    s.accept.ablation = true;
    all.push_back(s);
  }
  {  // Same spec + seed must digest identically, run to run.
    ScenarioSpec s;
    s.name = "determinism-p2p";
    s.plane = "determinism";
    s.topology = ScenarioSpec::Topology::kP2p;
    s.seed = 24;
    s.measure = sim::milliseconds(5);
    s.smoke_measure = sim::milliseconds(5);
    s.traffic = {source(K::kCbr, 30, 1500)};
    s.accept.determinism = true;
    all.push_back(s);
  }
  return all;
}

}  // namespace

const std::vector<ScenarioSpec>& builtin_scenarios() {
  static const std::vector<ScenarioSpec> all = make_builtins();
  return all;
}

bool find_scenario(const std::string& name, const std::string& scenario_dir,
                   ScenarioSpec& out, std::string& error) {
  for (const ScenarioSpec& s : builtin_scenarios()) {
    if (s.name == name) {
      out = s;
      return true;
    }
  }
  if (!scenario_dir.empty()) {
    if (core::load_scenario_file(scenario_dir + "/" + name + ".scn", out,
                                 error)) {
      return true;
    }
  }
  error = "unknown scenario '" + name + "'" +
          (scenario_dir.empty() ? "" : " (also tried " + scenario_dir + "/" +
                                           name + ".scn: " + error + ")");
  return false;
}

}  // namespace hni::sig
