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

End Testbed::switch_end(net::Switch& sw, std::size_t port) const {
  std::string name = "switch.?";
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    if (switches_[i].get() == &sw) name = "switch." + std::to_string(i);
  }
  return {nullptr, &sw, port, std::move(name)};
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
    for (std::size_t i = 0; i < switches_.size(); ++i) {
      auditor.audit_switch(*switches_[i], "switch." + std::to_string(i));
    }
    for (const Hop& hop : hops_) auditor.audit_hop(hop.from, *hop.link, hop.to);
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
  const auto recorded = [&](const net::Switch* sw, std::size_t port,
                            bool input) {
    return std::any_of(hops_.begin(), hops_.end(), [&](const Hop& h) {
      const End& end = input ? h.to : h.from;
      return end.sw == sw && end.port == port;
    });
  };
  for (const auto& sw : switches_) {
    for (std::size_t p = 0; p < sw->config().ports; ++p) {
      if (sw->cells_received_on(p) > 0 && !recorded(sw.get(), p, true)) {
        return;
      }
      if (sw->cells_forwarded_on(p) > 0 && !recorded(sw.get(), p, false)) {
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
  for (const Hop& h : hops_) {
    if (h.to.sw != nullptr) {  // into a switch: fabric ingress or trunk
      if (h.from.station != nullptr) ingress_in += h.link->cells_in();
      wire_losses += h.link->cells_lost() + h.link->cells_dropped_down();
    } else if (h.from.sw != nullptr) {  // switch -> station: egress
      egress_in += h.link->cells_in();
    }
  }
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

net::Link& Testbed::wire(End from, End to, net::LossModel loss,
                         sim::Time propagation) {
  net::Link& link = add_link(propagation, loss, next_seed());
  if (to.station != nullptr) {
    to.station->nic().attach_rx(link);  // sink + loss-of-signal observer
  } else {
    link.set_sink([sw = to.sw, port = to.port](const net::WireCell& w) {
      sw->receive(port, w);
    });
    // The switch watches the link *feeding* it: link down -> it
    // originates AIS for every route entering on that port.
    to.sw->set_input_link(to.port, link);
  }
  if (from.station != nullptr) {
    from.station->nic().attach_tx(link);
  } else {
    from.sw->attach_output(from.port, link);
  }
  hops_.push_back({std::move(from), &link, std::move(to)});
  return link;
}

std::pair<net::Link*, net::Link*> Testbed::connect(Station& a, Station& b,
                                                   net::LossModel loss,
                                                   sim::Time propagation) {
  net::Link& ab = wire(station_end(a), station_end(b), loss, propagation);
  net::Link& ba = wire(station_end(b), station_end(a), loss, propagation);
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
  wire(station_end(s), switch_end(sw, port), loss, propagation);
}

void Testbed::connect_from_switch(net::Switch& sw, std::size_t port,
                                  Station& s, net::LossModel loss,
                                  sim::Time propagation) {
  wire(switch_end(sw, port), station_end(s), loss, propagation);
}

std::pair<net::Link*, net::Link*> Testbed::connect_trunk(
    net::Switch& a, std::size_t port_a, net::Switch& b, std::size_t port_b,
    net::LossModel loss, sim::Time propagation) {
  net::Link& ab =
      wire(switch_end(a, port_a), switch_end(b, port_b), loss, propagation);
  net::Link& ba =
      wire(switch_end(b, port_b), switch_end(a, port_a), loss, propagation);
  return {&ab, &ba};
}

}  // namespace hni::core
