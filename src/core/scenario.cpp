#include "core/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

namespace hni::core {

namespace {
constexpr sim::Time kDrain = sim::milliseconds(10);
constexpr sim::Time kMaxDrain = sim::seconds(1);  // a wedged host's bound
constexpr sim::Time kInFlightGuard = sim::microseconds(100);
}  // namespace

Meas::Meas(std::size_t flows)
    : first_sdu_(flows, std::numeric_limits<std::uint64_t>::max()) {
  books_.flow_bytes.assign(flows, 0);
}

void Meas::deliver(std::size_t flow, const aal::Bytes& sdu,
                   const host::RxInfo& info) {
  const bool intact = aal::verify_pattern(sdu);
  if (!intact) ++pattern_failures_;
  const sim::Time now = info.handed_up_time;
  if (outage_start_ && !settled_ && now > *outage_start_ + kInFlightGuard) {
    ++books_.outages;
    books_.restore_max_us = std::max(
        books_.restore_max_us, sim::to_microseconds(now - *outage_start_));
    outage_start_.reset();
  }
  if (flow >= books_.flow_bytes.size()) return;
  if (intact && !settled_ && sdu.size() >= 8) {
    std::uint64_t tag = 0;
    std::memcpy(&tag, sdu.data(), 8);
    // The sources stop when the window closes, so every index from the
    // first in-window one on was generated in-window.
    if (tag - net::SduSource::pattern_seed(0) >= first_sdu_[flow]) {
      books_.offered_delivered_bytes += sdu.size();
    }
  }
  if (!measuring_) return;
  books_.flow_bytes[flow] += sdu.size();
  books_.latency_us.add(
      sim::to_microseconds(info.handed_up_time - info.first_cell_time));
}

void Meas::cut(sim::Time now) {
  if (measuring_ && !outage_start_) outage_start_ = now;
}

void Meas::run(Testbed& bed, const Sources& sources, sim::Time warmup,
               sim::Time window, const std::function<void()>& at_start,
               const std::function<void()>& at_end) {
  const auto offered = [&sources] {
    std::uint64_t bytes = 0;
    for (const auto& s : sources) bytes += s->bytes_offered();
    return bytes;
  };
  bed.sim().after(warmup, [&] {
    measuring_ = true;
    books_.events = bed.sim().census();
    books_.cells_delivered = bed.cells_received();
    for (std::size_t i = 0; i < sources.size(); ++i) {
      first_sdu_[i] = sources[i]->generated();
    }
    books_.offered_bytes = offered();
    if (at_start) at_start();
  });
  bed.run_for(warmup + window);

  measuring_ = false;
  books_.length = window;
  for (std::size_t i = 0; i < sim::kLayerCount; ++i) {
    books_.events[i] = bed.sim().census()[i] - books_.events[i];
  }
  books_.cells_delivered = bed.cells_received() - books_.cells_delivered;
  books_.offered_bytes = offered() - books_.offered_bytes;
  for (const auto& s : sources) s->stop();
  if (at_end) at_end();

  // A full send window of large PDUs can outlast one drain period; the
  // hop audit needs the wire quiet, so drain until no host has an SDU
  // in flight to its NIC, then once more for the last cells to land.
  bed.run_for(kDrain);
  if (bed.hosts_sending()) {
    const sim::Time limit = bed.now() + kMaxDrain;
    while (bed.hosts_sending() && bed.now() < limit) {
      bed.run_for(sim::milliseconds(1));
    }
    bed.run_for(kDrain);
  }
  settled_ = true;
}

P2pResult run_p2p(const P2pConfig& config) {
  Testbed bed;
  std::vector<sim::TraceEvent> trace;
  if (config.digest) bed.tracer().collect_into(trace);

  StationConfig sc = config.station;
  sc.name = "tx-station";
  Station& a = bed.add_station(sc);
  sc.name = "rx-station";
  Station& b = bed.add_station(sc);
  const auto [ab, ba] = bed.connect(a, b, config.loss, config.propagation);

  // Flow i on VCI vc.vci + i; the receiver verifies every SDU.
  const std::size_t n = config.flows.size();
  Meas meas(n);
  Meas::Sources sources;
  for (std::size_t i = 0; i < n; ++i) {
    const atm::VcId vc{config.vc.vpi,
                       static_cast<std::uint16_t>(config.vc.vci + i)};
    a.nic().open_vc(vc, config.aal);
    b.nic().open_vc(vc, config.aal);
    if (config.flows[i].pcr_cells_per_second > 0) {
      a.nic().tx().set_shaper(vc, config.flows[i].pcr_cells_per_second,
                              sim::microseconds(3));
    }
    sources.push_back(std::make_unique<net::SduSource>(
        bed.sim(), config.flows[i].source, [&a, &config, vc](aal::Bytes sdu) {
          return a.host().send(vc, config.aal, std::move(sdu));
        }));
  }
  b.host().set_rx_handler([&](aal::Bytes sdu, const host::RxInfo& info) {
    meas.deliver(static_cast<std::size_t>(info.vc.vci - config.vc.vci), sdu,
                 info);
  });
  a.host().set_tx_ready([&sources] {
    for (auto& s : sources) s->notify_ready();
  });
  for (auto& s : sources) s->start();
  schedule_flaps(bed, config.flap_period, config.flap_down, ab, ba,
                 config.warmup + config.measure, meas);

  // Warm up, then snapshot counters and measure.
  std::uint64_t sent0 = 0;
  std::uint64_t errs0 = 0;
  std::uint64_t drops0 = 0;
  P2pResult r;
  const auto at_start = [&] {
    sent0 = a.host().sdus_sent();
    errs0 = b.nic().rx().pdus_errored();
    drops0 = b.nic().rx().cells_fifo_dropped();
  };
  const auto at_end = [&] {
    const WindowBooks& w = meas.books();
    const double window_s = sim::to_seconds(w.length);
    std::uint64_t received_bytes = 0;
    for (const std::uint64_t bytes : w.flow_bytes) received_bytes += bytes;
    r.goodput_bps = static_cast<double>(received_bytes) * 8.0 / window_s;
    r.offered_bps = static_cast<double>(w.offered_bytes) * 8.0 / window_s;
    r.sdus_sent = a.host().sdus_sent() - sent0;
    r.sdus_received = w.latency_us.count();
    r.sdus_errored = b.nic().rx().pdus_errored() - errs0;
    r.cells_fifo_dropped = b.nic().rx().cells_fifo_dropped() - drops0;
    r.pattern_failures = meas.pattern_failures();

    const sim::Time now = bed.now();
    r.tx_engine_util = a.nic().tx().engine().utilization(now);
    r.rx_engine_util = b.nic().rx().engine().utilization(now);
    r.tx_host_cpu_util = a.host().cpu().utilization(now);
    r.rx_host_cpu_util = b.host().cpu().utilization(now);
    r.rx_bus_util = b.bus().utilization(now);
    r.tx_line_util = a.nic().tx().framer().utilization();

    r.rx_fifo_mean = b.nic().rx().fifo().mean_depth();
    r.rx_fifo_max = b.nic().rx().fifo().max_depth();

    r.latency_mean_us = w.latency_us.mean();
    r.latency_max_us = w.latency_us.max();

    const auto& ints = b.nic().rx().interrupts();
    r.interrupts_per_pdu =
        ints.events() == 0
            ? 0.0
            : static_cast<double>(ints.interrupts()) /
                  static_cast<double>(ints.events());
  };
  meas.run(bed, sources, config.warmup, config.measure, at_start, at_end);

  r.window = meas.books();
  auto auditor = bed.audit(/*include_hops=*/true);
  r.audit_clean = auditor.ok();
  if (!auditor.ok()) std::fputs(auditor.report().c_str(), stderr);
  if (config.digest) {
    Digest d;
    fold_run(d, trace, bed, r.window.flow_bytes);
    r.digest = d.hex();
  }
  return r;
}

void finish_result(const ScenarioSpec& spec, ScenarioResult& r,
                   const WindowBooks& w) {
  const double secs = sim::to_seconds(w.length);
  std::uint64_t total = 0;
  std::vector<double> normalised;
  for (std::size_t i = 0; i < w.flow_bytes.size(); ++i) {
    total += w.flow_bytes[i];
    const double mbps =
        static_cast<double>(w.flow_bytes[i]) * 8.0 / secs / 1e6;
    r.per_flow_mbps.push_back(mbps);
    normalised.push_back(mbps / spec.traffic[i].weight);
  }
  r.goodput_mbps = static_cast<double>(total) * 8.0 / secs / 1e6;
  r.offered_mbps = static_cast<double>(w.offered_bytes) * 8.0 / secs / 1e6;
  r.delivery_ratio = w.offered_bytes > 0
                         ? static_cast<double>(w.offered_delivered_bytes) /
                               static_cast<double>(w.offered_bytes)
                         : 0.0;
  r.jain_weighted = jain_index(normalised);
  r.events = w.events;
  r.cells_delivered = w.cells_delivered;
  r.outages = w.outages;
  r.restore_max_us = w.restore_max_us;
  if (w.latency_us.count() > 0) {
    r.latency_mean_us = w.latency_us.mean();
    r.latency_max_us = w.latency_us.max();
  }
}

void fold_trace(Digest& d, const std::vector<sim::TraceEvent>& trace) {
  d.fold(trace.size());
  for (const sim::TraceEvent& ev : trace) {
    d.fold(static_cast<std::uint64_t>(ev.when));
    d.fold(static_cast<std::uint64_t>(ev.id) << 32 |
           static_cast<std::uint64_t>(ev.source));
    d.fold(static_cast<std::uint64_t>(ev.a) << 32 |
           static_cast<std::uint64_t>(ev.b));
    d.fold(ev.seq);
  }
}

void fold_run(Digest& d, const std::vector<sim::TraceEvent>& trace,
              Testbed& bed, const std::vector<std::uint64_t>& flow_bytes) {
  fold_trace(d, trace);
  d.fold_string(bed.metrics().to_json());
  for (const std::uint64_t b : flow_bytes) d.fold(b);
}

void schedule_flaps(Testbed& bed, sim::Time period, sim::Time down,
                    net::Link* ab, net::Link* ba, sim::Time horizon,
                    Meas& meas) {
  if (period <= 0 || ab == nullptr) return;
  for (sim::Time cut = 0; cut + down <= horizon; cut += period) {
    bed.sim().after(cut, [ab, ba, &bed, &meas] {
      ab->set_down(true);
      if (ba != nullptr) ba->set_down(true);
      meas.cut(bed.now());
    });
    bed.sim().after(cut + down, [ab, ba] {
      ab->set_down(false);
      if (ba != nullptr) ba->set_down(false);
    });
  }
}

}  // namespace hni::core
