#include "sig/network.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <tuple>

namespace hni::sig {

namespace {
// CDVT granted by installed policers, as a multiple of the cell slot.
constexpr double kPoliceCdvtSlots = 10.0;
// Burst depths (in cells) of the trTCM meter installed for VBR calls
// (SETUPs carrying an SCR alongside the PCR): committed and peak
// bucket sizes respectively.
constexpr std::size_t kMeterCbsCells = 10;
constexpr std::size_t kMeterPbsCells = 10;
// RESTART retransmit interval and retry bound (T316).
constexpr sim::Time kT316 = sim::milliseconds(1);
constexpr unsigned kT316Retries = 16;
}  // namespace

SignalingNetwork::SignalingNetwork(core::Testbed& bed,
                                   std::vector<net::Switch*> switches,
                                   std::size_t agent_switch,
                                   std::size_t agent_port,
                                   SignalingConfig config)
    : bed_(bed),
      switches_(std::move(switches)),
      agent_sw_(agent_switch),
      agent_port_(agent_port),
      config_(config),
      tap_(bed.sim(), config.fault_seed) {
  if (switches_.empty() || agent_sw_ >= switches_.size()) {
    throw std::invalid_argument("SignalingNetwork: bad agent switch");
  }
  core::StationConfig sc;
  sc.name = "call-agent";
  // The agent is a beefy dedicated server: give it headroom so call
  // processing is dominated by protocol transport, not agent CPU.
  sc.host.cpu.clock_hz = 100e6;
  sc.host.cpu.cpi = 1.0;
  agent_ = &bed_.add_station(sc);
  bed_.connect_to_switch(*agent_, *switches_[agent_sw_], agent_port_);
  bed_.connect_from_switch(*switches_[agent_sw_], agent_port_, *agent_);

  tracer_ = &bed_.tracer();
  source_ = tracer_->intern("sig.agent");
  const sim::MetricScope scope(bed_.metrics(), "sig.agent");
  scope.expose("calls_routed", calls_routed_);
  scope.expose("calls_refused", calls_refused_);
  scope.expose("calls_refused_cac", calls_refused_cac_);
  scope.expose("duplicate_setups", duplicate_setups_);
  scope.expose("audit_ticks", audit_ticks_);
  scope.expose("enquiries_sent", enquiries_);
  scope.expose("calls_reclaimed", calls_reclaimed_);
  scope.expose("vcis_reclaimed", vcis_reclaimed_);
  scope.expose("routes_reclaimed", routes_reclaimed_);
  scope.expose("restarts_sent", restarts_sent_);
  scope.expose("restart_acks", restart_acks_);
  scope.expose("malformed_frames", malformed_);
  scope.expose("reroutes", reroutes_);
  scope.expose("reverts", reverts_);
  scope.expose("reroutes_failed", reroutes_failed_);
  scope.expose("sig_reroutes", sig_reroutes_);
  scope.gauge("active_calls",
              [this] { return static_cast<double>(calls_.size()); });
  scope.gauge("stranded_vcis",
              [this] { return static_cast<double>(stranded_vcis()); });
  scope.gauge("calls_on_protection", [this] {
    return static_cast<double>(calls_on_protection());
  });
  tap_.register_metrics(scope.sub("tap"));
}

SignalingNetwork::SignalingNetwork(core::Testbed& bed, net::Switch& sw,
                                   std::size_t agent_port,
                                   SignalingConfig config)
    : SignalingNetwork(bed, std::vector<net::Switch*>{&sw}, 0, agent_port,
                       std::move(config)) {}

void SignalingNetwork::trace(sim::TraceEventId id, std::uint32_t a,
                             std::uint32_t b, std::uint64_t seq) {
  if (tracer_) tracer_->emit({bed_.sim().now(), id, source_, a, b, seq});
}

// --- topology ---------------------------------------------------------

std::size_t SignalingNetwork::add_trunk(std::size_t sw_a, std::size_t port_a,
                                        std::size_t sw_b, std::size_t port_b,
                                        net::LossModel loss,
                                        sim::Time propagation) {
  if (sw_a >= switches_.size() || sw_b >= switches_.size() || sw_a == sw_b) {
    throw std::invalid_argument("SignalingNetwork: bad trunk endpoints");
  }
  const auto [ab, ba] = bed_.connect_trunk(*switches_[sw_a], port_a,
                                           *switches_[sw_b], port_b, loss,
                                           propagation);
  const std::size_t id = trunks_.size();
  trunks_.push_back(Trunk{sw_a, port_a, sw_b, port_b, ab, ba, new_pool()});
  const auto watch = [this, id](bool) { on_trunk_state(id); };
  ab->add_state_observer(watch);
  ba->add_state_observer(watch);
  return id;
}

void SignalingNetwork::trunk_exit(std::size_t trunk, std::size_t sw,
                                  std::size_t& tx_port, std::size_t& peer_sw,
                                  std::size_t& peer_port) const {
  const Trunk& t = trunks_.at(trunk);
  if (sw == t.sw_a) {
    tx_port = t.port_a;
    peer_sw = t.sw_b;
    peer_port = t.port_b;
  } else {
    tx_port = t.port_b;
    peer_sw = t.sw_a;
    peer_port = t.port_a;
  }
}

std::optional<std::vector<std::size_t>> SignalingNetwork::find_path(
    std::size_t from_sw, std::size_t to_sw, bool avoid_down) const {
  if (from_sw == to_sw) return std::vector<std::size_t>{};
  const std::size_t n = switches_.size();
  std::vector<bool> seen(n, false);
  std::vector<std::size_t> via_trunk(n, 0), via_sw(n, 0);
  std::deque<std::size_t> frontier{from_sw};
  seen[from_sw] = true;
  while (!frontier.empty()) {
    const std::size_t s = frontier.front();
    frontier.pop_front();
    // Trunks scanned in id order: ties resolve to the lowest trunk id,
    // so the chosen path is deterministic across runs and platforms.
    for (std::size_t id = 0; id < trunks_.size(); ++id) {
      const Trunk& t = trunks_[id];
      if (avoid_down && t.down) continue;
      std::size_t other;
      if (t.sw_a == s) {
        other = t.sw_b;
      } else if (t.sw_b == s) {
        other = t.sw_a;
      } else {
        continue;
      }
      if (seen[other]) continue;
      seen[other] = true;
      via_trunk[other] = id;
      via_sw[other] = s;
      if (other == to_sw) {
        std::vector<std::size_t> path;
        for (std::size_t at = to_sw; at != from_sw; at = via_sw[at]) {
          path.push_back(via_trunk[at]);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(other);
    }
  }
  return std::nullopt;
}

std::optional<std::size_t> SignalingNetwork::first_down_trunk(
    const std::vector<std::size_t>& path) const {
  for (const std::size_t t : path) {
    if (trunks_[t].down) return t;
  }
  return std::nullopt;
}

// --- attachment -------------------------------------------------------

CallControl& SignalingNetwork::attach(core::Station& station, std::size_t sw,
                                      std::size_t port, std::uint16_t party) {
  if (sw >= switches_.size()) {
    throw std::invalid_argument("SignalingNetwork: bad endpoint switch");
  }
  if (sw == agent_sw_ && port == agent_port_) {
    throw std::invalid_argument("SignalingNetwork: port taken by agent");
  }
  const auto sig_path = find_path(sw, agent_sw_, /*avoid_down=*/true);
  if (!sig_path) {
    throw std::invalid_argument("SignalingNetwork: no trunk path to agent");
  }
  bed_.connect_to_switch(station, *switches_[sw], port);
  bed_.connect_from_switch(*switches_[sw], port, station);

  const std::size_t ep = endpoints_.size();
  Endpoint& e = endpoints_.emplace_back(Endpoint{
      sw, port, party, new_pool(),
      Circuit{*sig_path, *sig_path,
              std::vector<std::uint16_t>(sig_path->size(), sig_hop_vc(ep).vci),
              {}}});
  program(e.relay, end_of(e, kSignalingVc), agent_end(ep));

  agent_->nic().open_vc(agent_rx_vc(ep), aal::AalType::kAal5);
  agent_->host().set_vc_handler(
      agent_rx_vc(ep), [this, ep](aal::Bytes sdu, const host::RxInfo&) {
        on_frame(ep, std::move(sdu));
      });

  controls_.push_back(std::make_unique<CallControl>(
      station, party, config_.endpoint, tracer_,
      sim::MetricScope(bed_.metrics(),
                       "sig.endpoint." + std::to_string(party)),
      config_.fault_seed * 7919 + party));
  return *controls_.back();
}

const SignalingNetwork::Endpoint* SignalingNetwork::endpoint_by_party(
    std::uint16_t party) const {
  for (const auto& e : endpoints_) {
    if (e.party == party) return &e;
  }
  return nullptr;
}

std::size_t SignalingNetwork::endpoint_index(const Endpoint* e) const {
  return static_cast<std::size_t>(e - endpoints_.data());
}

// --- VCI pools --------------------------------------------------------

std::optional<std::uint16_t> SignalingNetwork::VciPool::allocate() {
  if (!free.empty()) {
    const std::uint16_t vci = free.back();
    free.pop_back();
    return vci;
  }
  if (next >= end) return std::nullopt;
  return next++;
}

void SignalingNetwork::VciPool::release(std::uint16_t vci) {
  // Reclamation paths can race the normal handshake; freeing twice
  // would hand the same VCI to two calls.
  if (std::find(free.begin(), free.end(), vci) != free.end()) return;
  free.push_back(vci);
}

std::size_t SignalingNetwork::VciPool::stranded(
    const std::vector<std::uint16_t>& held) const {
  std::size_t n = 0;
  for (std::uint16_t vci = first; vci < next; ++vci) {
    if (std::find(free.begin(), free.end(), vci) == free.end() &&
        std::find(held.begin(), held.end(), vci) == held.end()) {
      ++n;
    }
  }
  return n;
}

bool SignalingNetwork::allocate_hop_vcis(const std::vector<std::size_t>& path,
                                         std::vector<std::uint16_t>& vcis) {
  vcis.clear();
  for (const std::size_t t : path) {
    const auto v = trunks_[t].vcis.allocate();
    if (!v) {
      release_hop_vcis(path, vcis);
      vcis.clear();
      return false;
    }
    vcis.push_back(*v);
  }
  return true;
}

void SignalingNetwork::release_hop_vcis(
    const std::vector<std::size_t>& path,
    const std::vector<std::uint16_t>& vcis) {
  for (std::size_t i = 0; i < vcis.size(); ++i) {
    trunks_[path[i]].vcis.release(vcis[i]);
  }
}

void SignalingNetwork::free_call(const AgentCall& call) {
  if (call.cac_committed) cac_apply(call.cac_keys, -call.pcr);
  endpoints_[call.caller_ep].vcis.release(call.caller_vc.vci);
  endpoints_[call.callee_ep].vcis.release(call.callee_vc.vci);
  release_hop_vcis(call.circuit.path, call.circuit.hop_vcis);
}

// --- admission control ------------------------------------------------

std::vector<std::size_t> SignalingNetwork::path_cac_keys(
    const AgentCall& call, const std::vector<std::size_t>& path) const {
  std::vector<std::size_t> keys;
  const Endpoint& caller = endpoints_[call.caller_ep];
  const Endpoint& callee = endpoints_[call.callee_ep];
  // Forward direction: every trunk exit port, then the callee's port.
  std::size_t sw = caller.sw;
  for (const std::size_t t : path) {
    std::size_t tx, peer_sw, peer_port;
    trunk_exit(t, sw, tx, peer_sw, peer_port);
    keys.push_back(cac_key(sw, tx));
    sw = peer_sw;
  }
  keys.push_back(cac_key(sw, callee.port));
  // Reverse direction mirrors it.
  sw = callee.sw;
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    std::size_t tx, peer_sw, peer_port;
    trunk_exit(*it, sw, tx, peer_sw, peer_port);
    keys.push_back(cac_key(sw, tx));
    sw = peer_sw;
  }
  keys.push_back(cac_key(sw, caller.port));
  return keys;
}

bool SignalingNetwork::cac_admits_keys(const std::vector<std::size_t>& keys,
                                       double pcr) const {
  if (config_.cac_utilization <= 0.0 || pcr <= 0.0) return true;
  // A self-call (or a path revisiting a port) commits the same port
  // more than once; the check must mirror the commit.
  for (const std::size_t key : keys) {
    const double need =
        pcr * static_cast<double>(std::count(keys.begin(), keys.end(), key));
    const double limit =
        config_.cac_utilization *
        switches_[key >> 8]->config().port_rate.cells_per_second();
    const auto it = committed_pcr_.find(key);
    const double committed = it != committed_pcr_.end() ? it->second : 0.0;
    if (committed + need > limit) return false;
  }
  return true;
}

void SignalingNetwork::cac_apply(const std::vector<std::size_t>& keys,
                                 double pcr) {
  for (const std::size_t key : keys) {
    auto& slot = committed_pcr_[key];
    slot += pcr;
    if (slot < 1e-9) slot = 0.0;  // swallow float drift on release
  }
}

// --- messaging --------------------------------------------------------

void SignalingNetwork::send_to_endpoint(std::size_t ep, const Message& m) {
  tap_.apply(m, [this, ep](const Message& mm) {
    agent_->host().send(agent_tx_vc(ep), aal::AalType::kAal5, mm.encode());
  });
}

void SignalingNetwork::refuse(std::size_t ep, const Message& setup,
                              Cause cause) {
  calls_refused_.add();
  Message m;
  m.type = MessageType::kRelease;
  m.call_id = setup.call_id;
  m.cause = cause;
  send_to_endpoint(ep, m);
}

void SignalingNetwork::on_frame(std::size_t from_ep, aal::Bytes sdu) {
  const DecodeResult r = decode_checked(sdu);
  if (!r.message) {
    malformed_.add();
    trace(sim::TraceEventId::kSigMalformed,
          static_cast<std::uint32_t>(r.error),
          static_cast<std::uint32_t>(from_ep), r.call_id_hint);
    if (r.error == Cause::kMessageTypeNonExistent) {
      Message st;
      st.type = MessageType::kStatus;
      st.call_id = r.call_id_hint;
      st.cause = r.error;
      st.call_state = calls_.count(r.call_id_hint) != 0
                          ? CallState::kConnected
                          : CallState::kNull;
      send_to_endpoint(from_ep, st);
    }
    return;
  }
  const Message& m = *r.message;
  switch (m.type) {
    case MessageType::kSetup:
      handle_setup(from_ep, m);
      break;
    case MessageType::kConnect:
      handle_connect(m);
      break;
    case MessageType::kRelease:
      handle_release(from_ep, m);
      break;
    case MessageType::kReleaseComplete:
      handle_release_complete(m);
      break;
    case MessageType::kStatus:
      handle_status(m);
      break;
    case MessageType::kStatusEnquiry: {
      // Endpoints don't normally enquire, but answering is cheap and
      // keeps the protocol symmetric.
      Message st;
      st.type = MessageType::kStatus;
      st.call_id = m.call_id;
      st.call_state = calls_.count(m.call_id) != 0 ? CallState::kConnected
                                                   : CallState::kNull;
      send_to_endpoint(from_ep, st);
      break;
    }
    case MessageType::kRestart:
      break;  // only the network originates RESTART
    case MessageType::kRestartAck:
      handle_restart_ack(from_ep);
      break;
  }
}

void SignalingNetwork::handle_setup(std::size_t from_ep, const Message& m) {
  const Endpoint* callee = endpoint_by_party(m.called_party);
  if (callee == nullptr) {
    refuse(from_ep, m, Cause::kNoRouteToDestination);
    return;
  }
  const std::size_t callee_ep = endpoint_index(callee);
  auto it = calls_.find(m.call_id);
  if (it != calls_.end()) {
    // Endpoint retransmission (T303). Answer from the stored call —
    // allocating again would leak the first set of VCIs.
    duplicate_setups_.add();
    AgentCall& call = it->second;
    if (call.routed) {
      // The callee already answered; the lost leg was our CONNECT to
      // the caller. Re-answer it directly.
      Message connect;
      connect.type = MessageType::kConnect;
      connect.call_id = m.call_id;
      connect.calling_party = call.callee_party;
      connect.aal = m.aal;
      connect.pcr_cells_per_second = call.pcr;
      connect.scr_cells_per_second = call.scr;
      connect.weight = call.weight;
      connect.abr = call.abr;
      connect.assigned_vc = call.caller_vc;
      send_to_endpoint(call.caller_ep, connect);
    } else {
      // Still waiting on the callee: the SETUP we forwarded was lost.
      Message fwd = m;
      fwd.assigned_vc = call.callee_vc;
      send_to_endpoint(call.callee_ep, fwd);
    }
    return;
  }

  AgentCall call;
  call.caller_ep = from_ep;
  call.callee_ep = callee_ep;
  call.caller_party = m.calling_party;
  call.callee_party = m.called_party;
  call.pcr = m.pcr_cells_per_second;
  call.scr = m.scr_cells_per_second;
  call.weight = std::max<std::uint16_t>(m.weight, 1);
  call.abr = m.abr;
  call.created = bed_.sim().now();

  // Path first: without connectivity there is nothing to admit.
  const auto path =
      find_path(endpoints_[from_ep].sw, callee->sw, /*avoid_down=*/true);
  if (!path) {
    refuse(from_ep, m, Cause::kNoRouteToDestination);
    return;
  }
  call.circuit.path = *path;
  call.circuit.primary = *path;

  // Admission control precedes VC allocation, so a refusal leaves zero
  // agent state: the endpoint can retry the same reference cleanly.
  const auto keys = path_cac_keys(call, *path);
  if (!cac_admits_keys(keys, call.pcr)) {
    calls_refused_cac_.add();
    trace(sim::TraceEventId::kSigCacRefusal,
          static_cast<std::uint32_t>(from_ep),
          static_cast<std::uint32_t>(callee_ep), m.call_id);
    refuse(from_ep, m, Cause::kResourceUnavailable);
    return;
  }

  VciPool& caller_pool = endpoints_[from_ep].vcis;
  VciPool& callee_pool = endpoints_[callee_ep].vcis;
  const auto caller_vci = caller_pool.allocate();
  const auto callee_vci = callee_pool.allocate();
  if (!caller_vci || !callee_vci ||
      !allocate_hop_vcis(*path, call.circuit.hop_vcis)) {
    if (caller_vci) caller_pool.release(*caller_vci);
    if (callee_vci) callee_pool.release(*callee_vci);
    refuse(from_ep, m, Cause::kNetworkOutOfVcs);
    return;
  }
  call.caller_vc = {0, *caller_vci};
  call.callee_vc = {0, *callee_vci};
  if (config_.cac_utilization > 0.0 && call.pcr > 0.0) {
    cac_apply(keys, call.pcr);
    call.cac_keys = keys;
    call.cac_committed = true;
  }
  calls_.emplace(m.call_id, std::move(call));
  ensure_audit_timer();

  Message fwd = m;
  fwd.assigned_vc = calls_.at(m.call_id).callee_vc;
  send_to_endpoint(callee_ep, fwd);
}

// --- route programming ------------------------------------------------

void SignalingNetwork::program(Circuit& c, const CircuitEnd& a,
                               const CircuitEnd& b, std::uint16_t weight,
                               bool abr) {
  // One simplex direction, hop by hop; b -> a walks the same trunks and
  // hop VCIs backwards.
  const auto direction = [&](const CircuitEnd& from, const CircuitEnd& to,
                             bool backwards) {
    std::size_t sw = from.sw;
    std::size_t in_port = from.port;
    atm::VcId in_vc = from.tx;
    const std::size_t n = c.path.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = backwards ? n - 1 - k : k;
      const atm::VcId hop_vc{0, c.hop_vcis[i]};
      std::size_t tx, peer_sw, peer_port;
      trunk_exit(c.path[i], sw, tx, peer_sw, peer_port);
      switches_[sw]->add_route(in_port, in_vc, tx, hop_vc, weight, abr);
      c.routes.push_back(RouteKey{sw, in_port, in_vc});
      sw = peer_sw;
      in_port = peer_port;
      in_vc = hop_vc;
    }
    switches_[sw]->add_route(in_port, in_vc, to.port, to.rx, weight, abr);
    c.routes.push_back(RouteKey{sw, in_port, in_vc});
  };
  direction(a, b, /*backwards=*/false);
  direction(b, a, /*backwards=*/true);
}

void SignalingNetwork::unprogram(Circuit& c) {
  for (const RouteKey& rk : c.routes) {
    switches_[rk.sw]->remove_route(rk.in_port, rk.vc);
  }
  c.routes.clear();
}

void SignalingNetwork::program_routes(AgentCall& call) {
  const Endpoint& caller = endpoints_[call.caller_ep];
  const Endpoint& callee = endpoints_[call.callee_ep];
  program(call.circuit, end_of(caller, call.caller_vc),
          end_of(callee, call.callee_vc), call.weight, call.abr);
  // UPC lives at the two ingress switches only: inside the fabric the
  // stream is already conformant (and trunk hops must not re-police a
  // contract the edge already enforced).
  if (call.scr > 0.0 && call.pcr > 0.0) {
    // VBR contract: two-rate trTCM meter (CIR = SCR, PIR = PCR) —
    // sustained-rate excess is tagged CLP, peak-rate excess dropped.
    atm::TrTcmConfig meter;
    meter.cir_cells_per_second = call.scr;
    meter.pir_cells_per_second = call.pcr;
    meter.cbs_cells = kMeterCbsCells;
    meter.pbs_cells = kMeterPbsCells;
    switches_[caller.sw]->add_meter(caller.port, call.caller_vc, meter);
    switches_[callee.sw]->add_meter(callee.port, call.callee_vc, meter);
  } else if (call.pcr > 0.0) {
    for (const Endpoint* e : {&caller, &callee}) {
      const sim::Time cdvt = static_cast<sim::Time>(
          kPoliceCdvtSlots *
          static_cast<double>(
              switches_[e->sw]->config().port_rate.cell_slot()));
      switches_[e->sw]->add_policer(
          e->port, e == &caller ? call.caller_vc : call.callee_vc, call.pcr,
          cdvt, net::Switch::PoliceAction::kDrop);
    }
  }
}

void SignalingNetwork::handle_connect(const Message& m) {
  auto it = calls_.find(m.call_id);
  if (it == calls_.end()) return;
  AgentCall& call = it->second;
  if (!call.routed) {
    // A trunk on the admitted path may have died between SETUP and
    // CONNECT; repath before programming rather than installing hops
    // into a black hole.
    if (const auto down = first_down_trunk(call.circuit.path)) {
      reroute_call(m.call_id, /*to_primary=*/false, *down);
    }
    program_routes(call);
    call.routed = true;
    call.strikes = 0;
    calls_routed_.add();
  }
  // Duplicate CONNECTs still answer the caller: its copy may be the
  // one that was lost.
  Message fwd = m;
  fwd.assigned_vc = call.caller_vc;
  send_to_endpoint(call.caller_ep, fwd);
}

void SignalingNetwork::handle_release(std::size_t from_ep,
                                      const Message& m) {
  auto it = calls_.find(m.call_id);
  if (it == calls_.end()) {
    // Retransmitted RELEASE for a call already completed: confirm
    // directly or the endpoint's T308 runs to exhaustion.
    Message rc;
    rc.type = MessageType::kReleaseComplete;
    rc.call_id = m.call_id;
    rc.calling_party = m.calling_party;
    rc.cause = m.cause;
    send_to_endpoint(from_ep, rc);
    return;
  }
  AgentCall& call = it->second;
  if (call.routed) {
    unprogram(call.circuit);
    call.routed = false;
  }
  // Relay to the peer leg; on its RELEASE COMPLETE we finish cleanup.
  const std::size_t peer =
      from_ep == call.caller_ep ? call.callee_ep : call.caller_ep;
  send_to_endpoint(peer, m);
}

void SignalingNetwork::handle_release_complete(const Message& m) {
  auto it = calls_.find(m.call_id);
  if (it == calls_.end()) return;
  AgentCall call = std::move(it->second);
  calls_.erase(it);
  free_call(call);
  // Forward the completion to the release initiator: it is the leg that
  // has not answered with RELEASE COMPLETE itself. The initiator's
  // address rode in the message.
  const std::size_t to_ep = m.calling_party == call.caller_party
                                ? call.callee_ep
                                : call.caller_ep;
  send_to_endpoint(to_ep, m);
}

// --- protection switching ---------------------------------------------

void SignalingNetwork::on_trunk_state(std::size_t trunk) {
  Trunk& t = trunks_[trunk];
  const bool down = t.ab->is_down() || t.ba->is_down();
  if (down == t.down) return;
  t.down = down;
  ++t.epoch;
  ++fabric_epoch_;
  if (!config_.protection.enabled) return;
  const std::uint64_t epoch = t.epoch;
  if (down) {
    bed_.sim().after(config_.protection.holdoff, [this, trunk, epoch] {
      if (trunks_[trunk].epoch == epoch && trunks_[trunk].down) {
        protect_sweep();
      }
    }, sim::Layer::kSig);
  } else {
    bed_.sim().after(kRevertDelay, [this, trunk, epoch] {
      if (trunks_[trunk].epoch == epoch && !trunks_[trunk].down) {
        revert_sweep();
      }
    }, sim::Layer::kSig);
  }
}

SignalingNetwork::Target SignalingNetwork::protection_target(
    const Circuit& c, bool to_primary, std::size_t from_sw,
    std::size_t to_sw, std::vector<std::size_t>& target) const {
  if (to_primary) {
    target = c.primary;
  } else {
    auto found = find_path(from_sw, to_sw, /*avoid_down=*/true);
    if (!found) return Target::kUnreachable;
    target = std::move(*found);
  }
  return target == c.path ? Target::kUnchanged : Target::kFound;
}

void SignalingNetwork::reroute_sig(std::size_t ep, bool to_primary) {
  Endpoint& e = endpoints_[ep];
  std::vector<std::size_t> target;
  // An unreachable relay stays isolated until a trunk recovers.
  if (protection_target(e.relay, to_primary, e.sw, agent_sw_, target) !=
      Target::kFound) {
    return;
  }
  unprogram(e.relay);
  e.relay.hop_vcis.assign(target.size(), sig_hop_vc(ep).vci);
  e.relay.path = std::move(target);
  program(e.relay, end_of(e, kSignalingVc), agent_end(ep));
  sig_reroutes_.add();
}

void SignalingNetwork::reroute_call(std::uint32_t call_id, bool to_primary,
                                    std::size_t trigger) {
  AgentCall& call = calls_.at(call_id);
  Circuit& c = call.circuit;
  std::vector<std::size_t> target;
  const Target found =
      protection_target(c, to_primary, endpoints_[call.caller_ep].sw,
                        endpoints_[call.callee_ep].sw, target);
  if (found == Target::kUnchanged) return;
  const auto refused = [this, &call] {
    reroutes_failed_.add();
    call.reroute_failed_epoch = fabric_epoch_;
  };
  // New trunk VCIs first — bail with nothing disturbed on exhaustion.
  std::vector<std::uint16_t> new_vcis;
  if (found == Target::kUnreachable || !allocate_hop_vcis(target, new_vcis)) {
    refused();
    return;
  }
  // CAC on the new path: release our own commitment, test, recommit
  // whichever path wins.
  if (call.cac_committed) {
    const auto new_keys = path_cac_keys(call, target);
    cac_apply(call.cac_keys, -call.pcr);
    if (!cac_admits_keys(new_keys, call.pcr)) {
      cac_apply(call.cac_keys, call.pcr);
      release_hop_vcis(target, new_vcis);
      refused();
      return;
    }
    cac_apply(new_keys, call.pcr);
    call.cac_keys = new_keys;
  }
  if (call.routed) unprogram(c);
  release_hop_vcis(c.path, c.hop_vcis);
  c.path = std::move(target);
  c.hop_vcis = std::move(new_vcis);
  if (call.routed) program_routes(call);
  if (to_primary) {
    reverts_.add();
  } else {
    reroutes_.add();
  }
  trace(sim::TraceEventId::kSigReroute, to_primary ? 0 : 1,
        static_cast<std::uint32_t>(trigger), call_id);
}

void SignalingNetwork::protect_sweep() {
  // Signalling relays first: control reachability is what lets the rest
  // of the protocol (release, audit, defect reports) keep working.
  for (std::size_t ep = 0; ep < endpoints_.size(); ++ep) {
    if (first_down_trunk(endpoints_[ep].relay.path)) {
      reroute_sig(ep, /*to_primary=*/false);
    }
  }
  // Contracted calls first (largest committed rate first), then best
  // effort; call id breaks ties so the order is deterministic.
  std::vector<std::uint32_t> ids;
  for (const auto& [id, call] : calls_) {
    if (!call.routed || !first_down_trunk(call.circuit.path)) continue;
    if (call.reroute_failed_epoch == fabric_epoch_) continue;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(), [this](std::uint32_t a, std::uint32_t b) {
    const AgentCall& ca = calls_.at(a);
    const AgentCall& cb = calls_.at(b);
    return std::make_tuple(!ca.cac_committed, -ca.pcr, a) <
           std::make_tuple(!cb.cac_committed, -cb.pcr, b);
  });
  for (const std::uint32_t id : ids) {
    reroute_call(id, /*to_primary=*/false,
                 first_down_trunk(calls_.at(id).circuit.path).value_or(0));
  }
}

void SignalingNetwork::revert_sweep() {
  for (std::size_t ep = 0; ep < endpoints_.size(); ++ep) {
    const Circuit& relay = endpoints_[ep].relay;
    if (relay.on_protection() && !first_down_trunk(relay.primary)) {
      reroute_sig(ep, /*to_primary=*/true);
    }
  }
  std::vector<std::uint32_t> ids;
  for (const auto& [id, call] : calls_) {
    if (call.circuit.on_protection() &&
        !first_down_trunk(call.circuit.primary)) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  for (const std::uint32_t id : ids) {
    const std::vector<std::size_t>& primary = calls_.at(id).circuit.primary;
    reroute_call(id, /*to_primary=*/true, primary.empty() ? 0 : primary[0]);
  }
}

std::size_t SignalingNetwork::calls_on_protection() const {
  std::size_t n = 0;
  for (const auto& [id, call] : calls_) {
    if (call.circuit.on_protection()) ++n;
  }
  return n;
}

// --- status audit -----------------------------------------------------

void SignalingNetwork::handle_status(const Message& m) {
  if (m.cause == Cause::kDestinationOutOfOrder) {
    // Endpoint defect report (NIC-level AIS / loss of continuity): run
    // the protection sweep even if our own trunk observer somehow
    // missed the failure. Not an audit reply — don't touch strikes.
    // The sweep waits out the holdoff (a transient the trunk observer
    // is already sitting on must not be escalated by the endpoint's
    // report), and concurrent reports share one pending sweep.
    if (config_.protection.enabled && !defect_sweep_pending_) {
      defect_sweep_pending_ = true;
      bed_.sim().after(config_.protection.holdoff, [this] {
        defect_sweep_pending_ = false;
        protect_sweep();
      }, sim::Layer::kSig);
    }
    return;
  }
  auto it = calls_.find(m.call_id);
  if (it == calls_.end()) return;
  AgentCall& call = it->second;
  if (call.enquiries_outstanding > 0) --call.enquiries_outstanding;
  if (m.call_state == CallState::kNull) {
    // An endpoint no longer knows a call we still carry: its state is
    // authoritative (it owns the VC); reclaim ours.
    reclaim_call(m.call_id, Cause::kTemporaryFailure);
    return;
  }
  // Only a fully answered round clears suspicion — resetting on the
  // first reply would let one live leg mask a dead one forever.
  if (call.enquiries_outstanding == 0) call.strikes = 0;
}

void SignalingNetwork::ensure_audit_timer() {
  // Armed only while there is something to audit, so a quiescent
  // network leaves the event queue empty (sim.run() terminates).
  if (audit_armed_ || config_.audit_period <= 0 || calls_.empty()) return;
  audit_armed_ = true;
  bed_.sim().after(config_.audit_period, [this] { audit_tick(); },
                   sim::Layer::kSig);
}

void SignalingNetwork::audit_tick() {
  audit_armed_ = false;
  audit_ticks_.add();
  const sim::Time now = bed_.sim().now();

  std::vector<std::uint32_t> ids;
  ids.reserve(calls_.size());
  for (const auto& [id, call] : calls_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  std::vector<std::uint32_t> to_reclaim;
  for (const std::uint32_t id : ids) {
    AgentCall& call = calls_.at(id);
    // Grace period: a call younger than one audit round is still mid-
    // handshake by design.
    if (now - call.created < config_.audit_period) continue;
    if (!call.routed) {
      // Half-open far beyond any handshake latency: a lost message the
      // endpoint timers failed to repair (or recovery is off there).
      if (++call.strikes >= kAuditStrikes) to_reclaim.push_back(id);
      continue;
    }
    if (call.enquiries_outstanding > 0 &&
        ++call.strikes >= kAuditStrikes) {
      // Both legs have ignored enquiries for several rounds.
      to_reclaim.push_back(id);
      continue;
    }
    // Verify both legs still know the call.
    call.enquiries_outstanding = 2;
    enquiries_.add(2);
    Message enq;
    enq.type = MessageType::kStatusEnquiry;
    enq.call_id = id;
    send_to_endpoint(call.caller_ep, enq);
    send_to_endpoint(call.callee_ep, enq);
  }
  for (const std::uint32_t id : to_reclaim) {
    reclaim_call(id, Cause::kRecoveryOnTimerExpiry);
  }
  reconcile_routes();
  ensure_audit_timer();
}

void SignalingNetwork::reclaim_call(std::uint32_t call_id, Cause cause) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  AgentCall call = std::move(it->second);
  calls_.erase(it);
  if (call.routed) {
    routes_reclaimed_.add(call.circuit.routes.size());
    unprogram(call.circuit);
  }
  free_call(call);
  vcis_reclaimed_.add(2 + call.circuit.path.size());
  calls_reclaimed_.add();
  trace(sim::TraceEventId::kSigVcReclaimed,
        static_cast<std::uint32_t>(call.caller_ep), call.caller_vc.vci,
        call_id);
  trace(sim::TraceEventId::kSigVcReclaimed,
        static_cast<std::uint32_t>(call.callee_ep), call.callee_vc.vci,
        call_id);
  // Tell both endpoints to clear whatever they still hold. RELEASE for
  // an unknown call is harmless (confirmed and forgotten).
  Message rel;
  rel.type = MessageType::kRelease;
  rel.call_id = call_id;
  rel.cause = cause;
  send_to_endpoint(call.caller_ep, rel);
  send_to_endpoint(call.callee_ep, rel);
}

std::vector<SignalingNetwork::RouteKey> SignalingNetwork::stale_routes()
    const {
  // Ownership is collected once per sweep. Signalling relays (endpoint
  // and trunk hops alike) sit below kFirstDataVci and are never stale.
  std::vector<RouteKey> owned;
  for (const auto& [id, call] : calls_) {
    owned.insert(owned.end(), call.circuit.routes.begin(),
                 call.circuit.routes.end());
  }
  std::sort(owned.begin(), owned.end());
  // for_each_route walks each switch in label order, so `stale` comes
  // out sorted and the sweep is deterministic.
  std::vector<RouteKey> stale;
  for (std::size_t si = 0; si < switches_.size(); ++si) {
    switches_[si]->for_each_route(
        [&](std::size_t in_port, atm::VcId vc, std::size_t, atm::VcId) {
          if (vc.vpi != 0 || vc.vci < kFirstDataVci) return;
          const RouteKey rk{si, in_port, vc};
          if (!std::binary_search(owned.begin(), owned.end(), rk)) {
            stale.push_back(rk);
          }
        });
  }
  return stale;
}

void SignalingNetwork::reconcile_routes() {
  // Any data route no active call owns is debris (typically post-crash:
  // the call table died but the fabric kept forwarding). VCIs are not
  // freed here — the pools are reconciled by the call-table paths, not
  // the fabric sweep.
  for (const RouteKey& rk : stale_routes()) {
    switches_[rk.sw]->remove_route(rk.in_port, rk.vc);
    routes_reclaimed_.add();
  }
}

// --- restart ----------------------------------------------------------

void SignalingNetwork::crash_restart() {
  // The agent process dies and restarts: volatile state (call table,
  // VCI allocators, pending audits) is gone. Routes in the fabric,
  // provisioned signalling relays and endpoint call state survived and
  // must be reconciled.
  calls_.clear();
  for (Endpoint& e : endpoints_) e.vcis = new_pool();
  for (Trunk& t : trunks_) t.vcis = new_pool();
  // The CAC books are volatile too: with no calls there is no committed
  // capacity, and re-admission rebuilds them from live SETUPs.
  committed_pcr_.clear();
  ++restart_instance_;
  reconcile_routes();
  for (std::size_t ep = 0; ep < endpoints_.size(); ++ep) {
    RestartState& rs = restarts_[ep];
    bed_.sim().cancel(rs.timer);
    rs.pending = true;
    rs.attempts = 0;
    send_restart(ep);
  }
}

void SignalingNetwork::send_restart(std::size_t ep) {
  RestartState& rs = restarts_[ep];
  if (!rs.pending) return;
  if (rs.attempts > kT316Retries) {
    // Endpoint unreachable; give up (the audit keeps the fabric clean).
    rs.pending = false;
    return;
  }
  ++rs.attempts;
  restarts_sent_.add();
  trace(sim::TraceEventId::kSigRestart, static_cast<std::uint32_t>(ep),
        rs.attempts, restart_instance_);
  Message m;
  m.type = MessageType::kRestart;
  m.call_id = restart_instance_;
  send_to_endpoint(ep, m);
  rs.timer = bed_.sim().after(kT316, [this, ep] {
    auto it = restarts_.find(ep);
    if (it == restarts_.end() || !it->second.pending) return;
    trace(sim::TraceEventId::kSigTimerExpiry, 316, 0, ep);
    send_restart(ep);
  }, sim::Layer::kSig);
}

void SignalingNetwork::handle_restart_ack(std::size_t from_ep) {
  auto it = restarts_.find(from_ep);
  if (it == restarts_.end() || !it->second.pending) return;
  it->second.pending = false;
  bed_.sim().cancel(it->second.timer);
  restart_acks_.add();
}

// --- invariants -------------------------------------------------------

SignalingNetwork::HeldVcis SignalingNetwork::held_vcis() const {
  HeldVcis held{std::vector<std::vector<std::uint16_t>>(endpoints_.size()),
                std::vector<std::vector<std::uint16_t>>(trunks_.size())};
  for (const auto& [id, call] : calls_) {
    held.endpoint[call.caller_ep].push_back(call.caller_vc.vci);
    held.endpoint[call.callee_ep].push_back(call.callee_vc.vci);
    const Circuit& c = call.circuit;
    for (std::size_t i = 0; i < c.path.size(); ++i) {
      held.trunk[c.path[i]].push_back(c.hop_vcis[i]);
    }
  }
  return held;
}

std::size_t SignalingNetwork::stranded_vcis() const {
  const HeldVcis held = held_vcis();
  std::size_t stranded = 0;
  for (std::size_t ep = 0; ep < endpoints_.size(); ++ep) {
    stranded += endpoints_[ep].vcis.stranded(held.endpoint[ep]);
  }
  for (std::size_t t = 0; t < trunks_.size(); ++t) {
    stranded += trunks_[t].vcis.stranded(held.trunk[t]);
  }
  return stranded;
}

std::size_t SignalingNetwork::stranded_routes() const {
  return stale_routes().size();
}

void SignalingNetwork::audit_invariants(core::InvariantAuditor& auditor) {
  // Every allocated VCI is owned by exactly one active call or sits on
  // the free list — per endpoint leg and per trunk alike.
  const HeldVcis held = held_vcis();
  for (std::size_t ep = 0; ep < endpoints_.size(); ++ep) {
    const VciPool& pool = endpoints_[ep].vcis;
    auditor.expect_eq(pool.allocated(),
                      pool.free.size() + held.endpoint[ep].size(),
                      "sig vci conservation",
                      "endpoint " + std::to_string(ep) +
                          ": allocated == free + active call legs");
  }
  for (std::size_t t = 0; t < trunks_.size(); ++t) {
    const VciPool& pool = trunks_[t].vcis;
    auditor.expect_eq(pool.allocated(),
                      pool.free.size() + held.trunk[t].size(),
                      "sig trunk vci conservation",
                      "trunk " + std::to_string(t) +
                          ": allocated == free + path hops");
  }
  // The fabric carries exactly the data routes of the routed calls:
  // 2 x (path hops + 1) per call, every one owned.
  std::uint64_t expected_routes = 0;
  for (const auto& [id, call] : calls_) {
    expected_routes += call.circuit.routes.size();
  }
  std::uint64_t data_routes = 0;
  for (std::size_t si = 0; si < switches_.size(); ++si) {
    switches_[si]->for_each_route(
        [this, &data_routes](std::size_t, atm::VcId vc, std::size_t,
                             atm::VcId) {
          if (vc.vpi != 0 || vc.vci < kFirstDataVci) return;
          ++data_routes;
        });
  }
  auditor.expect_eq(data_routes, expected_routes, "sig route ownership",
                    "fabric data routes == hops of routed calls");
  // CAC books balance per output port: the committed capacity equals
  // the PCR-weighted occurrences of that port across admitted calls'
  // paths — nothing leaks on release, reclaim, reroute, reversion or
  // agent restart. Compared at whole-cells/s granularity to shrug off
  // float summation order.
  std::unordered_map<std::size_t, double> expected;
  for (const auto& [id, call] : calls_) {
    if (!call.cac_committed) continue;
    for (const std::size_t key : call.cac_keys) {
      expected[key] += call.pcr;
    }
  }
  std::vector<std::size_t> keys;
  for (const auto& [key, v] : committed_pcr_) keys.push_back(key);
  for (const auto& [key, v] : expected) {
    if (committed_pcr_.find(key) == committed_pcr_.end()) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const std::size_t key : keys) {
    const auto cit = committed_pcr_.find(key);
    const auto eit = expected.find(key);
    auditor.expect_eq(
        static_cast<std::uint64_t>(
            std::llround(cit != committed_pcr_.end() ? cit->second : 0.0)),
        static_cast<std::uint64_t>(
            std::llround(eit != expected.end() ? eit->second : 0.0)),
        "sig cac books",
        "switch " + std::to_string(key >> 8) + " port " +
            std::to_string(key & 0xFF) +
            ": committed PCR == sum of admitted call legs");
  }
  // Each endpoint's NIC table matches its call-control state.
  for (const auto& control : controls_) {
    control->audit_invariants(auditor);
  }
}

}  // namespace hni::sig
