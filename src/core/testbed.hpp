// Scenario builder: stations, links, switches, and the simulation clock
// in one place. The library's top-level public API.
//
// Typical use (see examples/quickstart.cpp):
//
//   core::Testbed bed;
//   auto& a = bed.add_station({.name = "alice"});
//   auto& b = bed.add_station({.name = "bob"});
//   bed.connect(a, b, net::LossModel{});           // duplex, both NICs wired
//   a.nic().open_vc(vc, aal::AalType::kAal5);      // rx side of a
//   b.nic().open_vc(vc, aal::AalType::kAal5);
//   b.host().set_rx_handler(...);
//   a.host().send(vc, aal::AalType::kAal5, payload);
//   bed.run_for(sim::milliseconds(5));

#pragma once

#include <memory>
#include <vector>

#include "core/audit.hpp"
#include "core/station.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "sim/random.hpp"
#include "sim/telemetry/metrics.hpp"
#include "sim/trace.hpp"
#include "sim/simulator.hpp"

namespace hni::core {

class Testbed {
 public:
  Testbed() = default;

  /// Teardown runs the station-level invariant audit and warns on
  /// stderr if any conservation identity is broken — a leak anywhere
  /// in a scenario surfaces even when no test asked.
  ~Testbed();

  sim::Simulator& sim() { return sim_; }
  sim::Time now() const { return sim_.now(); }

  /// Shared tracer: add a sink (or enable the ring) to see per-cell
  /// wire events from every link the testbed creates (off — one branch
  /// per emit, zero allocations — until armed).
  sim::Tracer& tracer() { return tracer_; }

  /// The system-wide metrics registry. Everything the testbed creates
  /// registers itself: stations under "station.<i>.<name>", links under
  /// "link.<i>", switches under "switch.<i>". Snapshot or to_json() it
  /// to enumerate every instrument in the scenario.
  sim::MetricsRegistry& metrics() { return metrics_; }
  const sim::MetricsRegistry& metrics() const { return metrics_; }

  /// Creates a station owned by the testbed.
  Station& add_station(StationConfig config = {});

  /// Creates a free-standing link owned by the testbed.
  net::Link& add_link(sim::Time propagation, net::LossModel loss = {},
                      std::uint64_t seed = 1);

  /// Full-duplex connection a<->b: wires a's framer to a fresh link
  /// into b's receive path and vice versa; starts both framers.
  /// Returns {a->b, b->a}.
  std::pair<net::Link*, net::Link*> connect(
      Station& a, Station& b, net::LossModel loss = {},
      sim::Time propagation = sim::microseconds(5));

  /// Creates a switch owned by the testbed.
  net::Switch& add_switch(net::SwitchConfig config);

  /// Wires `s`'s transmit side into switch input `port`.
  void connect_to_switch(Station& s, net::Switch& sw, std::size_t port,
                         net::LossModel loss = {},
                         sim::Time propagation = sim::microseconds(5));

  /// Wires switch output `port` into `s`'s receive path.
  void connect_from_switch(net::Switch& sw, std::size_t port, Station& s,
                           net::LossModel loss = {},
                           sim::Time propagation = sim::microseconds(5));

  /// Wires a full-duplex inter-switch trunk: a's output `port_a` feeds
  /// b's input `port_b` and vice versa. Each switch registers the
  /// incoming link as that port's loss-of-signal source, so a trunk
  /// failure triggers downstream AIS insertion (Switch::set_input_link).
  /// Returns {a->b, b->a}.
  std::pair<net::Link*, net::Link*> connect_trunk(
      net::Switch& a, std::size_t port_a, net::Switch& b, std::size_t port_b,
      net::LossModel loss = {}, sim::Time propagation = sim::microseconds(5));

  /// Advances simulated time by `duration`.
  void run_for(sim::Time duration) { sim_.run_until(sim_.now() + duration); }

  /// Whether any station's host still has SDUs in flight to its NIC
  /// (accepted by send(), not yet completed).
  bool hosts_sending() const;

  /// Cells every station's receive path has taken off the wire.
  std::uint64_t cells_received() const;

  /// Runs the invariant auditor over every station; with
  /// `include_hops`, also audits every switch and each wire hop the
  /// connect calls made, and the fabric's end-to-end books (only valid
  /// once the event queue has run dry — cells in flight are on
  /// nobody's books).
  InvariantAuditor audit(bool include_hops = false);

 private:
  // Recorded fabric wiring, one record per simplex wire: the audit runs
  // per-hop conservation over every one of them, so each switch of a
  // multi-hop path gets its input and output links balanced.
  struct Hop {
    End from;
    net::Link* link;
    End to;
  };

  End station_end(Station& s) const { return {&s, nullptr, 0, s.name()}; }
  End switch_end(net::Switch& sw, std::size_t port) const;
  /// Creates the link from -> to (its seed and "link.N" name come next
  /// in order), attaches the receiving end, then the sending end, and
  /// records the hop.
  net::Link& wire(End from, End to, net::LossModel loss,
                  sim::Time propagation);
  void audit_path_conservation(InvariantAuditor& auditor) const;

  std::uint64_t next_seed() { return seed_counter_++; }

  sim::Simulator sim_;
  sim::Tracer tracer_;
  // Declared before the components that register into it: gauges hold
  // references into stations/links/switches, so those must die first
  // only if nobody snapshots afterwards — which ~Testbed guarantees by
  // auditing in its body, before any member is destroyed.
  sim::MetricsRegistry metrics_;
  sim::Rng ppm_rng_{0xC10C4};  // oscillator-offset source (deterministic)
  std::vector<std::unique_ptr<Station>> stations_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<std::unique_ptr<net::Switch>> switches_;
  std::vector<Hop> hops_;
  std::uint64_t seed_counter_ = 0x5EED;
};

}  // namespace hni::core
