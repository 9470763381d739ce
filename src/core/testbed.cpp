#include "core/testbed.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

namespace hni::core {

Testbed::~Testbed() {
  InvariantAuditor auditor;
  for (auto& s : stations_) auditor.audit_station(*s);
  if (!auditor.ok()) {
    std::fputs(auditor.report().c_str(), stderr);
  }
}

std::string Testbed::switch_label(const net::Switch* sw) const {
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    if (switches_[i].get() == sw) return "switch." + std::to_string(i);
  }
  return "switch.?";
}

bool Testbed::hosts_sending() const {
  return std::any_of(stations_.begin(), stations_.end(),
                     [](const auto& s) { return s->host().inflight_tx() > 0; });
}

std::uint64_t Testbed::cells_received() const {
  std::uint64_t cells = 0;
  for (const auto& s : stations_) cells += s->nic().rx().cells_received();
  return cells;
}

InvariantAuditor Testbed::audit(bool include_hops) {
  InvariantAuditor auditor;
  for (auto& s : stations_) auditor.audit_station(*s);
  if (include_hops) {
    for (const Hop& hop : hops_) {
      auditor.audit_hop(*hop.tx, *hop.link, *hop.rx);
    }
    for (std::size_t i = 0; i < switches_.size(); ++i) {
      auditor.audit_switch(*switches_[i], "switch." + std::to_string(i));
    }
    // Per-hop conservation over every recorded fabric hop — each switch
    // on a multi-hop path gets its ingress, trunk and egress links
    // balanced, not just the first one.
    for (const IngressHop& hop : ingress_hops_) {
      auditor.audit_ingress_hop(*hop.tx, *hop.link, *hop.sw, hop.port,
                                switch_label(hop.sw));
    }
    for (const TrunkHop& hop : trunk_hops_) {
      auditor.audit_trunk_hop(*hop.tx, hop.tx_port, *hop.link, *hop.rx,
                              hop.rx_port, switch_label(hop.tx),
                              switch_label(hop.rx));
    }
    for (const EgressHop& hop : egress_hops_) {
      auditor.audit_egress_hop(*hop.sw, hop.port, *hop.link, *hop.rx,
                               switch_label(hop.sw));
    }
    audit_path_conservation(auditor);
  }
  return auditor;
}

void Testbed::audit_path_conservation(InvariantAuditor& auditor) const {
  if (switches_.empty()) return;
  // The identity composes per-hop and per-switch books end to end, so
  // it is only meaningful when the recorded hops explain every cell the
  // fabric saw. A scenario that wired some switch port by hand (raw
  // add_link + set_sink) is skipped — its switches are still audited
  // individually by audit_switch.
  const auto recorded_input = [&](const net::Switch* sw, std::size_t port) {
    for (const IngressHop& h : ingress_hops_) {
      if (h.sw == sw && h.port == port) return true;
    }
    for (const TrunkHop& h : trunk_hops_) {
      if (h.rx == sw && h.rx_port == port) return true;
    }
    return false;
  };
  const auto recorded_output = [&](const net::Switch* sw, std::size_t port) {
    for (const EgressHop& h : egress_hops_) {
      if (h.sw == sw && h.port == port) return true;
    }
    for (const TrunkHop& h : trunk_hops_) {
      if (h.tx == sw && h.tx_port == port) return true;
    }
    return false;
  };
  for (const auto& sw : switches_) {
    for (std::size_t p = 0; p < sw->config().ports; ++p) {
      if (sw->cells_received_on(p) > 0 && !recorded_input(sw.get(), p)) {
        return;
      }
      if (sw->cells_forwarded_on(p) > 0 && !recorded_output(sw.get(), p)) {
        return;
      }
    }
  }
  // Cells offered at the fabric's ingress edges, plus alarms the
  // switches originated, equal the cells delivered at the egress edges
  // plus every drop book on the way plus whatever is still resident.
  std::uint64_t ingress_in = 0;
  std::uint64_t egress_in = 0;
  std::uint64_t wire_losses = 0;
  for (const IngressHop& h : ingress_hops_) {
    ingress_in += h.link->cells_in();
    wire_losses += h.link->cells_lost() + h.link->cells_dropped_down();
  }
  for (const TrunkHop& h : trunk_hops_) {
    wire_losses += h.link->cells_lost() + h.link->cells_dropped_down();
  }
  for (const EgressHop& h : egress_hops_) egress_in += h.link->cells_in();
  std::uint64_t ais = 0;
  std::uint64_t drops = 0;
  std::uint64_t resident = 0;
  for (const auto& sw : switches_) {
    ais += sw->cells_ais_inserted();
    drops += sw->cells_hec_discarded() + sw->cells_unroutable() +
             sw->cells_policed_dropped() + sw->cells_dropped_overflow() +
             sw->cells_dropped_vc_limit() + sw->cells_dropped_clp() +
             sw->cells_epd_dropped() + sw->cells_ppd_dropped() +
             sw->cells_wred_dropped();
    resident += sw->cells_queued();
  }
  auditor.expect_eq(ingress_in + ais,
                    egress_in + drops + resident + wire_losses,
                    "fabric path conservation",
                    "ingress offered + switch AIS == egress delivered-in + "
                    "per-hop drops + resident + wire losses");
}

Station& Testbed::add_station(StationConfig config) {
  if (!config.nic.tx.clock_ppm) {
    // Give every station a realistic, deterministic oscillator offset
    // so independent framers do not stay phase-locked forever.
    config.nic.tx.clock_ppm = ppm_rng_.normal(0.0, 20.0);
  }
  stations_.push_back(std::make_unique<Station>(sim_, std::move(config)));
  Station& st = *stations_.back();
  const std::string scope =
      "station." + std::to_string(stations_.size() - 1) + "." + st.name();
  st.register_metrics(sim::MetricScope(metrics_, scope));
  // Priority-lane drops in the RX FIFO (a lost alarm cell) are trace
  // events too, not just a counter.
  st.nic().rx().set_tracer(&tracer_, scope + ".nic.rx.fifo");
  // Continuity-check loss declare/clear edges are trace events as well.
  st.nic().set_tracer(&tracer_, scope + ".nic");
  return st;
}

net::Link& Testbed::add_link(sim::Time propagation, net::LossModel loss,
                             std::uint64_t seed) {
  links_.push_back(
      std::make_unique<net::Link>(sim_, propagation, loss, seed));
  const std::string idx = std::to_string(links_.size() - 1);
  links_.back()->set_tracer(&tracer_, "link" + idx);
  links_.back()->register_metrics(sim::MetricScope(metrics_, "link." + idx));
  return *links_.back();
}

std::pair<net::Link*, net::Link*> Testbed::connect(Station& a, Station& b,
                                                   net::LossModel loss,
                                                   sim::Time propagation) {
  net::Link& ab = add_link(propagation, loss, next_seed());
  net::Link& ba = add_link(propagation, loss, next_seed());
  b.nic().attach_rx(ab);  // sink + loss-of-signal observer
  a.nic().attach_rx(ba);
  a.nic().attach_tx(ab);
  b.nic().attach_tx(ba);
  hops_.push_back({&a, &ab, &b});
  hops_.push_back({&b, &ba, &a});
  return {&ab, &ba};
}

net::Switch& Testbed::add_switch(net::SwitchConfig config) {
  if (!config.clock_ppm) config.clock_ppm = ppm_rng_.normal(0.0, 20.0);
  switches_.push_back(std::make_unique<net::Switch>(sim_, config));
  const std::string idx = std::to_string(switches_.size() - 1);
  switches_.back()->register_metrics(
      sim::MetricScope(metrics_, "switch." + idx));
  switches_.back()->set_tracer(&tracer_, "switch." + idx);
  return *switches_.back();
}

void Testbed::connect_to_switch(Station& s, net::Switch& sw,
                                std::size_t port, net::LossModel loss,
                                sim::Time propagation) {
  net::Link& link = add_link(propagation, loss, next_seed());
  link.set_sink(
      [&sw, port](const net::WireCell& w) { sw.receive(port, w); });
  s.nic().attach_tx(link);
  sw.set_input_link(port, link);
  ingress_hops_.push_back({&s, &link, &sw, port});
}

void Testbed::connect_from_switch(net::Switch& sw, std::size_t port,
                                  Station& s, net::LossModel loss,
                                  sim::Time propagation) {
  net::Link& link = add_link(propagation, loss, next_seed());
  s.nic().attach_rx(link);
  sw.attach_output(port, link);
  egress_hops_.push_back({&sw, port, &link, &s});
}

std::pair<net::Link*, net::Link*> Testbed::connect_trunk(
    net::Switch& a, std::size_t port_a, net::Switch& b, std::size_t port_b,
    net::LossModel loss, sim::Time propagation) {
  net::Link& ab = add_link(propagation, loss, next_seed());
  net::Link& ba = add_link(propagation, loss, next_seed());
  ab.set_sink([&b, port_b](const net::WireCell& w) { b.receive(port_b, w); });
  ba.set_sink([&a, port_a](const net::WireCell& w) { a.receive(port_a, w); });
  a.attach_output(port_a, ab);
  b.attach_output(port_b, ba);
  // Each switch watches the link *feeding* it: trunk down -> the
  // downstream switch originates AIS for every route entering there.
  b.set_input_link(port_b, ab);
  a.set_input_link(port_a, ba);
  trunk_hops_.push_back({&a, port_a, &ab, &b, port_b});
  trunk_hops_.push_back({&b, port_b, &ba, &a, port_a});
  return {&ab, &ba};
}

}  // namespace hni::core
