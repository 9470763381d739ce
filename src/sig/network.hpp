// Network-side signalling: the call agent, topology provisioning, and
// automatic protection switching over a multi-switch fabric.
//
// A SignalingNetwork owns a dedicated agent station on one port of one
// switch of the fabric. Every endpoint's signalling VC (0/5) is
// provisioned as a permanent relay path to the agent — across trunks
// when the endpoint lives on another switch; the agent terminates the
// protocol:
//
//   SETUP   : resolve the called party -> its attachment point, compute
//             a trunk path between the two edge switches, allocate one
//             VCI per endpoint leg and one per trunk hop, forward SETUP
//             (with the callee's VC) to the callee; a *duplicate* SETUP
//             (endpoint retransmission) re-answers from the stored call
//             instead of allocating a second set of VCIs;
//   CONNECT : program the duplex route hop by hop at every switch on
//             the path, install UPC policers/meters at the two ingress
//             switches when the call carries a traffic contract,
//             forward CONNECT (with the caller's VC) to the caller —
//             idempotently on duplicates;
//   RELEASE : tear every hop down, relay to the peer; RELEASE for an
//             unknown call is confirmed directly (the endpoint is
//             retransmitting after completion);
//   RELEASE COMPLETE: free the leg and trunk VCIs, finish the call.
//
// On top of the handshake the agent runs the robustness machinery:
//
//   * a periodic *status audit* that reconciles its call table against
//     endpoint state (STATUS ENQUIRY / STATUS) and against every
//     switch's route table, reclaiming half-open calls, stranded VCIs
//     and stale routes after `kAuditStrikes` suspect rounds;
//   * RESTART/RESTART-ACK with a T316 retransmit timer: after
//     crash_restart() wipes the agent's volatile state, endpoints are
//     told to clear everything and the whole fabric is swept of orphan
//     routes;
//   * automatic protection switching: the agent watches every trunk's
//     links. When a trunk fails (and after `protection.holdoff`, so a
//     flap does not thrash the fabric), each affected call is rerouted
//     onto an alternate trunk path — CAC-checked on the new path,
//     contracted calls first, old hops torn down, endpoint-facing VCIs
//     untouched so neither endpoint renegotiates. Signalling relay
//     paths are rerouted the same way (before the calls, so control
//     reachability recovers first). When the failed trunk returns, and
//     stays up for `kRevertDelay`, protected calls revert to
//     their primary path. Endpoints also *report* defects: a NIC-level
//     AIS/loss-of-continuity alarm on a data VC arrives as STATUS with
//     cause 27 (destination out of order) and triggers the same sweep,
//     closing the loop even when the agent's own trunk observer lost.
//
// Everything — agent processing time, signalling transport, route
// programming — happens through the same simulated substrate as user
// data, so call-setup and failure-restoration latency are emergent,
// measurable quantities.
//
// The per-endpoint signalling relay uses well-known VCIs (k = endpoint
// attach index):
//   endpoint k -> agent:   (ep port, 0/5) -> ... -> (agent, 0/64+k)
//   agent -> endpoint k:   (agent, 0/32+k) -> ... -> (ep port, 0/5)
// with 0/128+k on any intermediate trunk hop. All of these sit below
// `kFirstDataVci`, so the data-route sweeps never touch them.
//
// To the agent a relay and a call are one thing, a Circuit: a duplex
// chain of per-hop VC translations over a trunk path, with its primary
// path, one VCI per trunk hop and the routes it programmed. One code
// path programs, removes and moves both; a circuit is on protection
// exactly when its path is not its primary. A call's data VCIs come
// from pools owned by what they number: each endpoint numbers its call
// legs, each trunk the hops that cross it.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/testbed.hpp"
#include "sig/call_control.hpp"
#include "sig/messages.hpp"

namespace hni::sig {

/// First data VCI; data VCIs are allocated upward per port/trunk.
inline constexpr std::uint16_t kFirstDataVci = 1000;
/// Consecutive suspect audit rounds before a call is reclaimed.
inline constexpr unsigned kAuditStrikes = 2;
/// How long a recovered trunk must stay up before protected calls
/// revert to their primary path (wait-to-restore).
inline constexpr sim::Time kRevertDelay = sim::milliseconds(2);

struct SignalingConfig {
  std::size_t max_vcs_per_port = 256;
  /// Timer/retransmission policy handed to every attached endpoint.
  CallControlConfig endpoint{};
  /// Status-audit cadence; 0 disables the audit (no reclamation).
  sim::Time audit_period = sim::milliseconds(5);
  /// Connection admission control: fraction of each output port's line
  /// rate the agent will commit to contracted (PCR > 0) calls, applied
  /// to *every* output port along the call's path (trunk hops
  /// included). A SETUP whose PCR would push any hop's committed
  /// capacity past `cac_utilization * port_rate` is refused with
  /// Cause::kResourceUnavailable. 0 disables admission control
  /// (every call is admitted, the pre-CAC behaviour).
  double cac_utilization = 0.0;
  /// Automatic protection switching policy.
  struct ProtectionConfig {
    bool enabled = false;
    /// Wait after a trunk-down edge before rerouting (flap damping).
    sim::Time holdoff = sim::microseconds(50);
  } protection{};
  /// Seed stream for the message taps (fault injection).
  std::uint64_t fault_seed = 0x51C;
};

class SignalingNetwork {
 public:
  /// Multi-switch fabric: `switches` are the fabric nodes (indexed by
  /// position), the agent station is created on `agent_port` of
  /// `switches[agent_switch]`. Wire trunks with add_trunk() *before*
  /// attaching endpoints on other switches.
  SignalingNetwork(core::Testbed& bed, std::vector<net::Switch*> switches,
                   std::size_t agent_switch, std::size_t agent_port,
                   SignalingConfig config = {});

  /// Single-switch convenience (the historical topology).
  SignalingNetwork(core::Testbed& bed, net::Switch& sw,
                   std::size_t agent_port, SignalingConfig config = {});

  /// Wires a duplex inter-switch trunk between `switches[sw_a]` port
  /// `port_a` and `switches[sw_b]` port `port_b`, and registers it for
  /// protection monitoring. Returns the trunk id.
  std::size_t add_trunk(std::size_t sw_a, std::size_t port_a,
                        std::size_t sw_b, std::size_t port_b,
                        net::LossModel loss = {},
                        sim::Time propagation = sim::microseconds(5));

  /// Both simplex links of trunk `id` ({a->b, b->a}) — the fault
  /// injection surface for trunk-failure scenarios.
  std::pair<net::Link*, net::Link*> trunk_links(std::size_t id) {
    return {trunks_.at(id).ab, trunks_.at(id).ba};
  }

  /// Wires `station` to port `port` of `switches[sw]` (duplex),
  /// provisions its signalling relay to the agent, and registers it
  /// under address `party`. Returns the endpoint's call control.
  CallControl& attach(core::Station& station, std::size_t sw,
                      std::size_t port, std::uint16_t party);

  /// Single-switch convenience: attaches to switch 0.
  CallControl& attach(core::Station& station, std::size_t port,
                      std::uint16_t party) {
    return attach(station, 0, port, party);
  }

  core::Station& agent() { return *agent_; }

  /// Simulates an agent process crash-and-restart: all volatile call
  /// state (call table, VCI allocators, CAC books) is lost. Recovery
  /// sweeps every switch of orphan routes and sends RESTART to every
  /// endpoint, retransmitting on T316 until each acknowledges.
  void crash_restart();

  /// The agent's outgoing-message fault tap (chaos injection point for
  /// the agent->endpoint direction).
  MessageTap& agent_tap() { return tap_; }

  std::uint64_t calls_routed() const { return calls_routed_.value(); }
  std::uint64_t calls_refused() const { return calls_refused_.value(); }
  /// SETUPs refused by admission control specifically.
  std::uint64_t calls_refused_cac() const {
    return calls_refused_cac_.value();
  }
  /// PCR (cells/s) currently committed to admitted calls on output
  /// `port` of switch `sw`.
  double committed_pcr(std::size_t sw, std::size_t port) const {
    const auto it = committed_pcr_.find(cac_key(sw, port));
    return it != committed_pcr_.end() ? it->second : 0.0;
  }
  /// Single-switch convenience (switch 0).
  double committed_pcr(std::size_t port) const {
    return committed_pcr(0, port);
  }
  std::size_t active_calls() const { return calls_.size(); }
  std::uint64_t duplicate_setups() const { return duplicate_setups_.value(); }
  std::uint64_t audit_ticks() const { return audit_ticks_.value(); }
  std::uint64_t enquiries_sent() const { return enquiries_.value(); }
  /// Calls reclaimed by the status audit (not via the handshake).
  std::uint64_t calls_reclaimed() const { return calls_reclaimed_.value(); }
  std::uint64_t vcis_reclaimed() const { return vcis_reclaimed_.value(); }
  /// Stale switch routes removed by reconciliation.
  std::uint64_t routes_reclaimed() const { return routes_reclaimed_.value(); }
  std::uint64_t restarts_sent() const { return restarts_sent_.value(); }
  std::uint64_t restart_acks() const { return restart_acks_.value(); }
  std::uint64_t malformed_frames() const { return malformed_.value(); }
  /// Protection books: calls moved off a failed trunk path, calls moved
  /// back to their primary path, and reroute attempts that found no
  /// admissible alternate (no path, no VCIs, or CAC refusal).
  std::uint64_t reroutes() const { return reroutes_.value(); }
  std::uint64_t reverts() const { return reverts_.value(); }
  std::uint64_t reroutes_failed() const { return reroutes_failed_.value(); }
  /// Signalling relay paths moved by protection (either direction).
  std::uint64_t sig_reroutes() const { return sig_reroutes_.value(); }
  /// Calls currently riding an alternate (non-primary) path.
  std::size_t calls_on_protection() const;

  /// VCIs currently allocated but owned by no active call — the leak
  /// the audit exists to drive to zero. Counts endpoint-leg and
  /// trunk-hop allocators alike.
  std::size_t stranded_vcis() const;
  /// Data routes anywhere in the fabric owned by no active call.
  std::size_t stranded_routes() const;

  /// Registers the signalling plane's conservation identities:
  /// every allocated VCI (endpoint leg or trunk hop) is owned by
  /// exactly one active call or on its free list; every switch carries
  /// exactly the data routes of the calls routed through it; the CAC
  /// books balance per output port; each endpoint's NIC table matches
  /// its call state.
  void audit_invariants(core::InvariantAuditor& auditor);

 private:
  /// One hop of programmed fabric state: (switch, input port, VC).
  struct RouteKey {
    std::size_t sw = 0;
    std::size_t in_port = 0;
    atm::VcId vc{};
    friend auto operator<=>(const RouteKey&, const RouteKey&) = default;
  };
  /// A duplex chain of per-hop VC translations over a trunk path: an
  /// endpoint's signalling relay or a call. Its end VCs live with its
  /// owner; protection moves `path` and reverts it to `primary`.
  struct Circuit {
    std::vector<std::size_t> path;      // trunk ids, a-end -> b-end
    std::vector<std::size_t> primary;   // as provisioned or admitted
    // One VCI per trunk hop, shared by both directions: the two
    // directions enter different switches, so the (in_port, VCI) keys
    // never collide.
    std::vector<std::uint16_t> hop_vcis;
    std::vector<RouteKey> routes;       // hops programmed, both directions
    bool on_protection() const { return path != primary; }
  };
  /// Where a circuit meets the fabric: the VC its end sends on (`tx`)
  /// and the VC it receives on (`rx`).
  struct CircuitEnd {
    std::size_t sw = 0;
    std::size_t port = 0;
    atm::VcId tx{};
    atm::VcId rx{};
  };
  /// One VCI allocator: hands out [first, end) upward and reuses freed
  /// VCIs last in, first out.
  struct VciPool {
    std::uint16_t first = 0;
    std::size_t end = 0;
    std::uint16_t next = 0;
    std::vector<std::uint16_t> free;
    std::optional<std::uint16_t> allocate();
    void release(std::uint16_t vci);
    std::uint64_t allocated() const { return next - first; }
    /// Allocated VCIs neither on the free list nor in `held`.
    std::size_t stranded(const std::vector<std::uint16_t>& held) const;
  };
  struct Endpoint {
    std::size_t sw = 0;
    std::size_t port = 0;
    std::uint16_t party = 0;
    VciPool vcis;  // this endpoint's call legs
    // Signalling VC 0/5 to the agent (provisioned, survives
    // crash_restart); the endpoint is its a-end.
    Circuit relay;
  };
  struct Trunk {
    std::size_t sw_a = 0;
    std::size_t port_a = 0;
    std::size_t sw_b = 0;
    std::size_t port_b = 0;
    net::Link* ab = nullptr;
    net::Link* ba = nullptr;
    VciPool vcis;  // the hops of the calls crossing it
    bool down = false;
    std::uint64_t epoch = 0;  // invalidates holdoff/revert timers
  };
  struct AgentCall {
    std::size_t caller_ep = 0;  // endpoint indices, not ports
    std::size_t callee_ep = 0;
    std::uint16_t caller_party = 0;
    std::uint16_t callee_party = 0;
    atm::VcId caller_vc{};
    atm::VcId callee_vc{};
    double pcr = 0.0;
    double scr = 0.0;            // > 0 selects a trTCM meter over GCRA
    std::uint16_t weight = 1;    // DWRR share at the output queues
    bool abr = false;            // ERICA explicit-rate participant
    bool routed = false;
    bool cac_committed = false;  // pcr is counted in the CAC books
    sim::Time created = 0;      // for the audit's grace period
    unsigned strikes = 0;       // consecutive suspect audit rounds
    unsigned enquiries_outstanding = 0;
    Circuit circuit;                     // the caller is its a-end
    std::vector<std::size_t> cac_keys;   // output ports committed
    // Reroute attempts are retried only after the fabric changes again:
    // with no trunk transition since the last refusal, the answer
    // cannot have improved, and every extra sweep would double-count.
    std::uint64_t reroute_failed_epoch = ~0ull;
  };
  struct RestartState {
    bool pending = false;
    unsigned attempts = 0;
    sim::EventHandle timer;
  };
  /// The VCIs live calls hold, per endpoint and per trunk pool.
  struct HeldVcis {
    std::vector<std::vector<std::uint16_t>> endpoint;
    std::vector<std::vector<std::uint16_t>> trunk;
  };
  /// What protection does with a circuit (see protection_target).
  enum class Target { kUnchanged, kFound, kUnreachable };

  static std::size_t cac_key(std::size_t sw, std::size_t port) {
    return (sw << 8) | port;
  }
  VciPool new_pool() const {
    return {kFirstDataVci, kFirstDataVci + config_.max_vcs_per_port,
            kFirstDataVci, {}};
  }
  atm::VcId agent_tx_vc(std::size_t ep) const {
    return {0, static_cast<std::uint16_t>(32 + ep)};
  }
  atm::VcId agent_rx_vc(std::size_t ep) const {
    return {0, static_cast<std::uint16_t>(64 + ep)};
  }
  atm::VcId sig_hop_vc(std::size_t ep) const {
    return {0, static_cast<std::uint16_t>(128 + ep)};
  }
  static CircuitEnd end_of(const Endpoint& e, atm::VcId vc) {
    return {e.sw, e.port, vc, vc};
  }
  CircuitEnd agent_end(std::size_t ep) const {
    return {agent_sw_, agent_port_, agent_tx_vc(ep), agent_rx_vc(ep)};
  }

  void on_frame(std::size_t ep, aal::Bytes sdu);
  void handle_setup(std::size_t from_ep, const Message& m);
  void handle_connect(const Message& m);
  void handle_release(std::size_t from_ep, const Message& m);
  void handle_release_complete(const Message& m);
  void handle_status(const Message& m);
  void handle_restart_ack(std::size_t from_ep);
  void send_to_endpoint(std::size_t ep, const Message& m);
  void refuse(std::size_t ep, const Message& setup, Cause cause);
  /// One VCI per hop of `path` from each trunk's pool into `vcis`; on
  /// exhaustion releases what it took and returns false.
  bool allocate_hop_vcis(const std::vector<std::size_t>& path,
                         std::vector<std::uint16_t>& vcis);
  void release_hop_vcis(const std::vector<std::size_t>& path,
                        const std::vector<std::uint16_t>& vcis);
  /// Returns a finished call's VCIs to their pools and its PCR to the
  /// CAC books.
  void free_call(const AgentCall& call);
  HeldVcis held_vcis() const;
  /// Shortest trunk path between two switches (BFS, lowest trunk id
  /// first — deterministic); empty path when src == dst, nullopt when
  /// unreachable. With `avoid_down`, failed trunks are not edges.
  std::optional<std::vector<std::size_t>> find_path(std::size_t from_sw,
                                                    std::size_t to_sw,
                                                    bool avoid_down) const;
  /// The first failed trunk on `path`, if any.
  std::optional<std::size_t> first_down_trunk(
      const std::vector<std::size_t>& path) const;
  /// The trunk's exit port on `sw` and the far side it leads to.
  void trunk_exit(std::size_t trunk, std::size_t sw, std::size_t& tx_port,
                  std::size_t& peer_sw, std::size_t& peer_port) const;
  /// Programs both directions of `c` between its ends `a` and `b`
  /// (a -> b first) along `c.path` with `c.hop_vcis`.
  void program(Circuit& c, const CircuitEnd& a, const CircuitEnd& b,
               std::uint16_t weight = 1, bool abr = false);
  /// Removes every hop `c` programmed.
  void unprogram(Circuit& c);
  /// Every output port (as a CAC key) the call occupies on `path`,
  /// both directions.
  std::vector<std::size_t> path_cac_keys(
      const AgentCall& call, const std::vector<std::size_t>& path) const;
  bool cac_admits_keys(const std::vector<std::size_t>& keys,
                       double pcr) const;
  void cac_apply(const std::vector<std::size_t>& keys, double pcr);
  /// Programs the call's circuit and its UPC at the two ingress ports.
  void program_routes(AgentCall& call);
  /// Picks the path protection moves `c` onto into `target`: its
  /// primary, or else the shortest path from `from_sw` to `to_sw`
  /// around failed trunks.
  Target protection_target(const Circuit& c, bool to_primary,
                           std::size_t from_sw, std::size_t to_sw,
                           std::vector<std::size_t>& target) const;
  /// Moves the call onto `to_primary ? primary : freshly-computed`
  /// path: CAC re-checked, trunk VCIs reallocated, hops reprogrammed,
  /// endpoint-facing VCIs untouched. `trigger` is the trunk that
  /// caused the move (trace only).
  void reroute_call(std::uint32_t call_id, bool to_primary,
                    std::size_t trigger);
  /// Moves endpoint `ep`'s signalling relay the same way (its hops use
  /// the well-known sig_hop_vc, not a pool).
  void reroute_sig(std::size_t ep, bool to_primary);
  void on_trunk_state(std::size_t trunk);
  /// Reroutes every signalling relay and routed call whose current
  /// path crosses a failed trunk (contracted calls first).
  void protect_sweep();
  /// Reverts protected relays/calls whose primary path is whole again.
  void revert_sweep();
  const Endpoint* endpoint_by_party(std::uint16_t party) const;
  std::size_t endpoint_index(const Endpoint* e) const;
  /// Data routes no live call owns, sorted by (switch, port, VC).
  std::vector<RouteKey> stale_routes() const;
  void audit_tick();
  void ensure_audit_timer();
  void reclaim_call(std::uint32_t call_id, Cause cause);
  void reconcile_routes();
  void send_restart(std::size_t ep);
  void trace(sim::TraceEventId id, std::uint32_t a, std::uint32_t b,
             std::uint64_t seq);

  core::Testbed& bed_;
  std::vector<net::Switch*> switches_;
  std::size_t agent_sw_;
  std::size_t agent_port_;
  SignalingConfig config_;
  core::Station* agent_ = nullptr;
  sim::Tracer* tracer_ = nullptr;
  std::uint16_t source_ = 0;
  MessageTap tap_;
  std::vector<Endpoint> endpoints_;
  std::vector<Trunk> trunks_;
  std::vector<std::unique_ptr<CallControl>> controls_;
  std::unordered_map<std::uint32_t, AgentCall> calls_;
  // CAC books: PCR committed per (switch, output port) to admitted calls.
  std::unordered_map<std::size_t, double> committed_pcr_;
  std::unordered_map<std::size_t, RestartState> restarts_;
  bool audit_armed_ = false;
  std::uint32_t restart_instance_ = 0;
  std::uint64_t fabric_epoch_ = 0;  // bumped on every trunk transition
  bool defect_sweep_pending_ = false;
  sim::Counter calls_routed_;
  sim::Counter calls_refused_;
  sim::Counter calls_refused_cac_;
  sim::Counter duplicate_setups_;
  sim::Counter audit_ticks_;
  sim::Counter enquiries_;
  sim::Counter calls_reclaimed_;
  sim::Counter vcis_reclaimed_;
  sim::Counter routes_reclaimed_;
  sim::Counter restarts_sent_;
  sim::Counter restart_acks_;
  sim::Counter malformed_;
  sim::Counter reroutes_;
  sim::Counter reverts_;
  sim::Counter reroutes_failed_;
  sim::Counter sig_reroutes_;
};

}  // namespace hni::sig
