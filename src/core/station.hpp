// A workstation: host bus + host memory + the ATM interface + the host
// CPU/driver, assembled and wired.
//
// This is the unit of the paper's design: everything from the
// TURBOchannel connector to the SONET plug. Scenarios (core::Testbed)
// instantiate stations and connect them with links and switches.

#pragma once

#include <memory>
#include <string>

#include "bus/host_memory.hpp"
#include "bus/turbochannel.hpp"
#include "host/host.hpp"
#include "nic/nic.hpp"
#include "sim/simulator.hpp"

namespace hni::core {

struct StationConfig {
  std::string name = "station";
  bus::BusConfig bus{};
  nic::NicConfig nic{};
  host::HostConfig host{};
};

class Station {
 public:
  Station(sim::Simulator& sim, StationConfig config);

  const std::string& name() const { return config_.name; }
  sim::Simulator& sim() { return sim_; }
  bus::Bus& bus() { return bus_; }
  bus::HostMemory& memory() { return memory_; }
  nic::Nic& nic() { return nic_; }
  host::Host& host() { return host_; }
  const StationConfig& config() const { return config_; }

  /// Surfaces the whole station — bus + NIC (both paths, per-VC) —
  /// under `scope`.
  void register_metrics(const sim::MetricScope& scope) {
    bus_.register_metrics(scope.sub("bus"));
    nic_.register_metrics(scope.sub("nic"));
  }

 private:
  StationConfig config_;
  sim::Simulator& sim_;
  bus::Bus bus_;
  bus::HostMemory memory_;
  nic::Nic nic_;
  host::Host host_;
};

}  // namespace hni::core
