// Canonical measured scenarios.
//
// run_p2p() is the one two-station runner, shared by the paper benches
// and the fleet's p2p topology: two stations, a duplex connection
// (optionally lossy or flapping), one VC per flow, traffic sources on
// one host and a verifying sink on the other, with a warm-up window
// excluded from measurement. Results carry every quantity the
// experiment suite reports: goodput, utilizations, FIFO behaviour,
// latency, loss accounting and byte-integrity verdicts.
//
// Meas is the one measurement window, shared with the fleet's switched
// topologies: warmup, the window, then stop and drain before the audit.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario_spec.hpp"
#include "core/testbed.hpp"
#include "net/traffic.hpp"
#include "sim/stats.hpp"

namespace hni::core {

struct P2pFlow {
  net::SduSource::Config source{};
  double pcr_cells_per_second = 0.0;  // TX shaper; 0 = unshaped
};

struct P2pConfig {
  StationConfig station{};  // template applied to both ends
  aal::AalType aal = aal::AalType::kAal5;
  atm::VcId vc{0, 100};        // flow i rides VCI vc.vci + i
  std::vector<P2pFlow> flows;
  net::LossModel loss{};
  sim::Time flap_period = 0;   // the link pair is down for flap_down at
  sim::Time flap_down = 0;     // the head of every period; 0 = no flaps
  sim::Time propagation = sim::microseconds(5);
  sim::Time warmup = sim::milliseconds(2);
  sim::Time measure = sim::milliseconds(20);
  bool digest = false;         // fill P2pResult::digest (fold_run)
};

/// What one measurement window counted.
struct WindowBooks {
  sim::Time length = 0;
  std::vector<std::uint64_t> flow_bytes;  // payload handed up in-window
  // Payload of the SDUs generated in-window, and the part of it
  // delivered by the end of the drain: their ratio cannot exceed 1.
  std::uint64_t offered_bytes = 0;
  std::uint64_t offered_delivered_bytes = 0;
  sim::RunningStat latency_us;  // first cell emitted -> host memory
  // Kernel events fired in-window, per layer, and the cells delivered
  // to stations in-window (Testbed::cells_received): the work unit.
  sim::Census events{};
  std::uint64_t cells_delivered = 0;
  // Flap cuts in the window, and the worst time from a cut to the first
  // delivery past the in-flight guard (see Meas::cut).
  std::uint64_t outages = 0;
  double restore_max_us = 0.0;
};

struct P2pResult {
  // Measured over the post-warmup window.
  double goodput_bps = 0.0;     // receiver-verified SDU payload bits/s
  double offered_bps = 0.0;     // source SDU payload bits/s
  std::uint64_t sdus_sent = 0;
  std::uint64_t sdus_received = 0;
  std::uint64_t sdus_errored = 0;   // reassembly failures at the receiver
  std::uint64_t cells_fifo_dropped = 0;
  std::uint64_t pattern_failures = 0;

  double tx_engine_util = 0.0;
  double rx_engine_util = 0.0;
  double tx_host_cpu_util = 0.0;
  double rx_host_cpu_util = 0.0;
  double rx_bus_util = 0.0;
  double tx_line_util = 0.0;

  double rx_fifo_mean = 0.0;
  double rx_fifo_max = 0.0;

  double latency_mean_us = 0.0;  // first cell emitted -> host memory
  double latency_max_us = 0.0;

  double interrupts_per_pdu = 0.0;  // receiver side

  WindowBooks window;
  bool audit_clean = true;  // full audit, wire hops too, after the drain
  std::string digest;       // when P2pConfig::digest is set

  bool data_ok() const { return pattern_failures == 0; }
};

/// Runs warmup + measure, then stops the sources, drains and audits
/// (printing the auditor's report to stderr if the books do not balance).
P2pResult run_p2p(const P2pConfig& config);

/// One measurement window over `flows` flows: hook deliver() into the
/// receiving hosts, then run() it.
class Meas {
 public:
  using Sources = std::vector<std::unique_ptr<net::SduSource>>;

  explicit Meas(std::size_t flows);

  /// One SDU of `flow` handed up. Its pattern tag carries its index at
  /// the source, so SDUs generated in-window count wherever they land.
  void deliver(std::size_t flow, const aal::Bytes& sdu,
               const host::RxInfo& info);

  /// A flap cut the link at `now`. In the window, it starts an outage
  /// that the first delivery more than 100 us later (cells past the cut
  /// still landing are not restoration) ends; cuts while one is open
  /// extend it.
  void cut(sim::Time now);

  /// From now: `warmup`, then the `window` (opened by an event scheduled
  /// now, so it precedes anything else due at that instant), then the
  /// sources (flow i = sources[i]) stop and the network drains: 10 ms,
  /// and on while any host still has SDUs in flight to its NIC.
  void run(Testbed& bed, const Sources& sources, sim::Time warmup,
           sim::Time window, const std::function<void()>& at_start = {},
           const std::function<void()>& at_end = {});

  const WindowBooks& books() const { return books_; }
  std::uint64_t pattern_failures() const { return pattern_failures_; }

 private:
  WindowBooks books_;
  bool measuring_ = false;
  bool settled_ = false;  // drained: late SDUs no longer count
  std::vector<std::uint64_t> first_sdu_;  // per flow: first in-window SDU
  std::uint64_t pattern_failures_ = 0;
  std::optional<sim::Time> outage_start_;
};

/// The window-derived fields of a fleet result: per-flow and total
/// goodput, offered load, delivery ratio, weighted Jain, latency.
void finish_result(const ScenarioSpec& spec, ScenarioResult& r,
                   const WindowBooks& w);

/// Folds a trace stream's length and every event into `d`.
void fold_trace(Digest& d, const std::vector<sim::TraceEvent>& trace);

/// The fleet's run digest: trace, telemetry snapshot, per-flow bytes.
void fold_run(Digest& d, const std::vector<sim::TraceEvent>& trace,
              Testbed& bed, const std::vector<std::uint64_t>& flow_bytes);

/// Square-wave outage on a duplex link pair (`ba` may be null): down
/// for `down` at the head of every `period` from now until `horizon`.
/// Each cut is also reported to `meas` for restore timing.
void schedule_flaps(Testbed& bed, sim::Time period, sim::Time down,
                    net::Link* ab, net::Link* ba, sim::Time horizon,
                    Meas& meas);

}  // namespace hni::core
