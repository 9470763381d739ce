// hostbench: one repetition of one workload, timed from outside the
// library.
//
//   hostbench --workload NAME --seed N [--traced] [--spans PATH]
//
// Builds its own core::Testbed (and sig::SignalingNetwork) from public
// calls, so set-up, the measured window and teardown are timed apart.
// Host time is wall-clock time on std::chrono::steady_clock; simulated
// outputs (audits, payload patterns, floors) are checked as correctness.
// Prints one JSON object on stdout. With --traced, the link and switch
// sinks Testbed installs are re-installed as timing wrappers around the
// same public calls, and span-derived per-layer costs are reported too.
// Exits nonzero when an operation failed.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "aal/types.hpp"
#include "atm/crc.hpp"
#include "atm/phy.hpp"
#include "core/scenario_spec.hpp"  // core::Digest
#include "core/testbed.hpp"
#include "sig/network.hpp"
#include "sim/random.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace hostbench {
namespace {

using hni::atm::VcId;
namespace aal = hni::aal;
namespace atm = hni::atm;
namespace core = hni::core;
namespace net = hni::net;
namespace sig = hni::sig;
namespace sim = hni::sim;

constexpr std::size_t kSlices = 200;  // simulated-time slices per window
constexpr std::size_t kRawSpansPerName = 5000;  // Chrome trace sample
constexpr std::uint16_t kSinkParty = 200;

std::int64_t g_main_ns = 0;  // process start, as seen by main()

double mbps_to_cells(double mbps) { return mbps * 1e6 / (48.0 * 8.0); }

enum class Traffic : std::uint8_t { kGreedy, kCbr };

/// One traffic source: a station sending on a rotation of VCs.
struct Sender {
  core::Station* station = nullptr;
  std::vector<VcId> vcs;  // switched flows: filled in on CONNECT
  std::size_t next_vc = 0;
  Traffic mode = Traffic::kGreedy;
  sim::Time period = 0;  // CBR
  bool running = false;
};

/// Host-side books of one SDU handed to Host::send.
struct SentSdu {
  bool in_window = false;
  bool delivered = false;
};

/// Counters sampled at window edges; the window's work is end - start.
struct Books {
  double cells = 0;  // cells received by sink RX paths
  double events = 0;
  double cells_built = 0;
  double dma_transfers = 0;
  double framer_cells = 0;
  double framer_idle = 0;
  double sw_received = 0;
  double sw_forwarded = 0;
  double link_in = 0;
  double link_lost = 0;
  double send_calls = 0;
  double send_refused = 0;
  double bytes_delivered = 0;  // SDU payload handed up (and verified)
};

class Bench {
 public:
  Bench(std::string workload, std::uint64_t seed, bool traced)
      : workload_(std::move(workload)),
        seed_(seed),
        salt_(static_cast<std::uint32_t>(seed * 0x9E3779B1u + 1)),
        rng_(seed * 0x2545F4914F6CDD1Dull + 7) {
    if (traced) {
      spans_ = std::make_unique<SpanRecorder>(kRawSpansPerName);
      rec_ = spans_.get();
    }
    auto id = [this](const char* n) {
      return spans_ ? spans_->intern(n) : SpanRecorder::Id{0};
    };
    sp_setup_ = id("bench.setup");
    sp_warmup_ = id("bench.warmup");
    sp_window_ = id("bench.window");
    sp_drain_ = id("bench.drain");
    sp_teardown_ = id("bench.teardown");
    sp_run_ = id("sim.run_until");
    sp_link_send_ = id("net.link.send");
    sp_switch_rx_ = id("net.switch.receive");
    sp_rx_wire_ = id("nic.rx.receive_wire");
    sp_host_send_ = id("host.send");
    sp_verify_ = id("aal.verify_pattern");
    sp_open_vc_ = id("nic.open_vc");
    sp_place_call_ = id("sig.place_call");
    sp_audit_ = id("core.audit");
    sp_metrics_json_ = id("core.metrics_json");
  }

  /// Runs the whole repetition; false for an unknown workload.
  bool run() {
    bed_ = std::make_unique<core::Testbed>();
    {
      ScopedSpan s(rec_, sp_setup_);
      if (workload_ == "p2p-bulk") {
        build_p2p(atm::sts12c(), 64, 9180);
        warmup_ = sim::milliseconds(2);
        window_ = sim::milliseconds(300);
        drain_ = sim::milliseconds(20);
      } else if (workload_ == "p2p-manyvc") {
        build_p2p(atm::sts3c(), 4096, 40);
        warmup_ = sim::milliseconds(1);
        window_ = sim::milliseconds(10);
        drain_ = sim::milliseconds(10);
      } else if (workload_ == "triangle-failover") {
        build_triangle();
        warmup_ = sim::milliseconds(5);
        window_ = sim::milliseconds(300);
        drain_ = sim::milliseconds(10);
      } else {
        return false;
      }
      if (rec_) install_wrappers();
    }
    setup_s_ = static_cast<double>(SpanRecorder::now_ns() - g_main_ns) / 1e9;
    for (Sender& s : senders_) start(s);
    schedule_flaps();
    {
      ScopedSpan s(rec_, sp_warmup_);
      run_to(bed_->now() + warmup_);
    }
    measure_window();
    {
      ScopedSpan s(rec_, sp_drain_);
      drain();
    }
    fold_counters();
    teardown();
    check_floors();
    if (rec_) time_crc32();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    e2e_.push_back({"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0});
    return true;
  }

  void print_json(std::ostream& os) const {
    os.precision(17);
    os << "{\"workload\":\"" << workload_ << "\",\"seed\":" << seed_
       << ",\"traced\":" << (rec_ ? 1 : 0) << ",\"digest\":\"" << digest_.hex()
       << "\",\"attempted\":" << attempted_ << ",\"failed\":"
       << failures_.size() << ",\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      os << (i ? "," : "") << "\"" << failures_[i] << "\"";
    }
    os << "],";
    print_group(os, "e2e", e2e_);
    os << ",";
    print_group(os, "layer", layer_);
    os << ",";
    print_group(os, "spans", span_metrics_);
    os << "}\n";
  }

  void write_spans(const std::string& path) {
    if (!spans_) return;
    std::ofstream out(path);
    spans_->write_chrome_trace(out, workload_, seed_);
    if (!out) fail("cannot write spans to " + path);
  }

  bool ok() const { return failures_.empty(); }

 private:
  using Metrics = std::vector<std::pair<std::string, double>>;

  static void print_group(std::ostream& os, const char* key,
                          const Metrics& m) {
    os << "\"" << key << "\":{";
    for (std::size_t i = 0; i < m.size(); ++i) {
      os << (i ? "," : "") << "\"" << m[i].first << "\":" << m[i].second;
    }
    os << "}";
  }

  void fail(std::string what) {
    // Failure texts are plain identifiers and numbers; keep the JSON
    // valid regardless.
    for (char& c : what) {
      if (c == '"' || c == '\\' || c < ' ') c = '\'';
    }
    failures_.push_back(std::move(what));
  }

  // --- building --------------------------------------------------------

  core::StationConfig station_config(const atm::LineRate& line) {
    core::StationConfig stc;
    stc.nic.line = line;
    if (line.payload_bps > atm::sts3c().payload_bps) {
      // STS-12c stations get the faster engines and host the fleet's
      // greedy STS-12c row uses, so the wire, not the CPU, is the limit.
      stc.nic.with_clock(50e6);
      stc.host.cpu.clock_hz = 400e6;
      stc.host.cpu.cpi = 1.0;
      stc.host.max_inflight_tx = 64;
    }
    // Seeded oscillator offset: framers drift differently per seed.
    stc.nic.tx.clock_ppm = rng_.normal(0.0, 20.0);
    return stc;
  }

  void open_vc(core::Station& st, VcId vc) {
    ScopedSpan s(rec_, sp_open_vc_);
    st.nic().open_vc(vc, aal::AalType::kAal5);
  }

  /// Two stations on a duplex link; `vcs` VCs opened on each NIC; one
  /// greedy source rotating over them from a seeded starting VC.
  void build_p2p(const atm::LineRate& line, std::size_t vcs,
                 std::size_t sdu_bytes) {
    sdu_bytes_ = sdu_bytes;
    core::StationConfig stc = station_config(line);
    stc.name = "bench-tx";
    core::Station& a = bed_->add_station(stc);
    stc = station_config(line);
    stc.name = "bench-rx";
    core::Station& b = bed_->add_station(stc);
    const auto [ab, ba] = bed_->connect(a, b);
    stations_ = {&a, &b};
    sinks_ = {&b};
    p2p_ = {ab, ba};
    Sender s;
    s.station = &a;
    const std::int64_t t0 = SpanRecorder::now_ns();
    for (std::size_t i = 0; i < vcs; ++i) {
      const VcId vc{0, static_cast<std::uint16_t>(32 + i)};
      open_vc(a, vc);
      open_vc(b, vc);
      s.vcs.push_back(vc);
    }
    open_vc_ns_ = static_cast<double>(SpanRecorder::now_ns() - t0);
    vcs_opened_ = 2 * vcs;
    s.next_vc = rng_.uniform_int(0, vcs - 1);
    senders_.push_back(std::move(s));
    install_rx_handler(b);
  }

  net::SwitchConfig switch_config(std::size_t ports) {
    net::SwitchConfig swc;
    swc.ports = ports;
    swc.queue_cells = 1024;
    swc.clp_threshold = swc.queue_cells;
    swc.clock_ppm = rng_.normal(0.0, 20.0);
    return swc;
  }

  /// Attaches `n` CBR source stations to switch 0 ports 0..n-1 and the
  /// sink to (`sink_sw`, `sink_port`), and places one call per source.
  void attach_and_call(const core::StationConfig& base, std::size_t n,
                       std::size_t sink_sw, std::size_t sink_port,
                       const std::vector<sig::TrafficDescriptor>& td,
                       const std::vector<sim::Time>& periods) {
    std::vector<sig::CallControl*> callers;
    for (std::size_t i = 0; i < n; ++i) {
      core::StationConfig stc = base;
      stc.nic.tx.clock_ppm = rng_.normal(0.0, 20.0);
      stc.name = "bench-src" + std::to_string(i);
      core::Station& st = bed_->add_station(stc);
      stations_.push_back(&st);
      callers.push_back(&net_->attach(st, 0, i,
                                      static_cast<std::uint16_t>(1 + i)));
      Sender s;
      s.station = &st;
      s.mode = Traffic::kCbr;
      s.period = periods[i];
      senders_.push_back(std::move(s));
    }
    core::StationConfig stc = base;
    stc.nic.tx.clock_ppm = rng_.normal(0.0, 20.0);
    stc.name = "bench-sink";
    core::Station& sink = bed_->add_station(stc);
    stations_.push_back(&sink);
    stations_.push_back(&net_->agent());
    sinks_ = {&sink};
    sig::CallControl& cc_sink =
        net_->attach(sink, sink_sw, sink_port, kSinkParty);
    cc_sink.set_incoming([](const sig::CallControl::CallInfo&) {
      return true;
    });
    install_rx_handler(sink);

    const std::int64_t t0 = SpanRecorder::now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      ScopedSpan s(rec_, sp_place_call_);
      ++calls_placed_;
      call_ids_.push_back(callers[i]->place_call(
          kSinkParty, aal::AalType::kAal5, td[i],
          [this, i](const sig::CallControl::CallInfo& info) {
            senders_[i].vcs = {info.vc};
            ++calls_connected_;
          }));
    }
    callers_ = callers;
    // Carry the handshakes to CONNECT (bounded: a call that never
    // connects is a failed operation, not a hang).
    for (int ms = 0; ms < 50 && calls_connected_ < calls_placed_; ++ms) {
      run_to(bed_->now() + sim::milliseconds(1));
    }
    place_call_ns_ = static_cast<double>(SpanRecorder::now_ns() - t0);
    attempted_ += calls_placed_;
    for (std::size_t i = calls_connected_; i < calls_placed_; ++i) {
      fail("call never connected");
    }
  }

  /// Eight protected CBR calls across a three-switch triangle whose
  /// primary trunk flaps; OAM CC heartbeats run on every data VC.
  void build_triangle() {
    constexpr std::size_t kSources = 8;
    sdu_bytes_ = 1500;
    for (const std::size_t ports : {kSources + 3, std::size_t{3}, std::size_t{2}}) {
      switches_.push_back(&bed_->add_switch(switch_config(ports)));
    }
    sig::SignalingConfig cfg;
    cfg.protection.enabled = true;
    cfg.audit_period = 0;  // an outage must not trip the reclaimer
    cfg.fault_seed = seed_ * 31 + 7;
    net_ = std::make_unique<sig::SignalingNetwork>(
        *bed_, switches_, /*agent_switch=*/0, /*agent_port=*/kSources, cfg);
    add_trunk(0, kSources + 1, 1, 1);  // primary: the one that flaps
    add_trunk(0, kSources + 2, 2, 0);
    add_trunk(2, 1, 1, 2);
    core::StationConfig base = station_config(atm::sts3c());
    base.nic.cc.enabled = true;
    std::vector<sig::TrafficDescriptor> td(kSources);
    std::vector<sim::Time> periods;
    for (std::size_t i = 0; i < kSources; ++i) {
      const double mbps = 14.0;
      // PCR 2.5x the offered rate: restoration headroom after an outage.
      td[i].pcr_cells_per_second = mbps_to_cells(2.5 * mbps);
      // A small per-flow detune keeps CBR periods from phase-locking.
      periods.push_back(
          sdu_gap(mbps / (1.0 + 0.0137 * static_cast<double>(i))));
    }
    attach_and_call(base, kSources, 1, 0, td, periods);
    flap_period_ = sim::milliseconds(10);
    flap_down_ = sim::milliseconds(4);
  }

  /// SDU spacing that offers `mbps` of SDU payload.
  sim::Time sdu_gap(double mbps) const {
    return static_cast<sim::Time>(static_cast<double>(sdu_bytes_) * 8.0 /
                                  (mbps * 1e6) *
                                  static_cast<double>(sim::kSecond));
  }

  void add_trunk(std::size_t sw_a, std::size_t port_a, std::size_t sw_b,
                 std::size_t port_b) {
    trunks_.push_back(
        {net_->add_trunk(sw_a, port_a, sw_b, port_b), sw_a, port_a, sw_b,
         port_b});
  }

  void schedule_flaps() {
    if (flap_period_ == 0) return;
    const auto [ab, ba] = net_->trunk_links(trunks_.front().id);
    const sim::Time phase = static_cast<sim::Time>(
        rng_.uniform_int(0, static_cast<std::uint64_t>(flap_period_ / 2)));
    const sim::Time t0 = bed_->now();
    for (sim::Time cut = phase; cut + flap_down_ <= warmup_ + window_;
         cut += flap_period_) {
      bed_->sim().at(t0 + cut, [ab, ba] {
        ab->set_down(true);
        ba->set_down(true);
      });
      bed_->sim().at(t0 + cut + flap_down_, [ab, ba] {
        ab->set_down(false);
        ba->set_down(false);
      });
    }
  }

  /// Re-installs each reachable link and framer sink as a timing
  /// wrapper around the same public call Testbed installed.
  void install_wrappers() {
    SpanRecorder* rec = rec_;
    if (p2p_.first != nullptr) {
      core::Station& a = *stations_[0];
      core::Station& b = *stations_[1];
      const SpanRecorder::Id send = sp_link_send_;
      const SpanRecorder::Id rx = sp_rx_wire_;
      for (auto [from, link, to] :
           {std::tuple{&a, p2p_.first, &b}, std::tuple{&b, p2p_.second, &a}}) {
        from->nic().tx().framer().set_sink(
            [rec, send, link](const atm::Cell& cell) {
              ScopedSpan s(rec, send);
              link->send(cell);
            });
        link->set_sink([rec, rx, to](const net::WireCell& w) {
          ScopedSpan s(rec, rx);
          to->nic().rx().receive_wire(w);
        });
      }
    }
    const SpanRecorder::Id sw_rx = sp_switch_rx_;
    for (const Trunk& t : trunks_) {
      const auto [ab, ba] = net_->trunk_links(t.id);
      for (auto [link, sw, port] :
           {std::tuple{ab, switches_[t.b_sw], t.b_port},
            std::tuple{ba, switches_[t.a_sw], t.a_port}}) {
        link->set_sink([rec, sw_rx, sw, port](const net::WireCell& w) {
          ScopedSpan s(rec, sw_rx);
          sw->receive(port, w);
        });
      }
    }
  }

  // --- traffic ---------------------------------------------------------

  void install_rx_handler(core::Station& st) {
    st.host().set_rx_handler(
        [this](aal::Bytes sdu, const hni::host::RxInfo& info) {
          on_sdu(sdu, info);
        });
  }

  void start(Sender& s) {
    s.running = true;
    if (s.mode == Traffic::kGreedy) {
      s.station->host().set_tx_ready([this, &s] { pump(s); });
      bed_->sim().after(0, [this, &s] { pump(s); });
    } else {
      schedule_arrival(s);
    }
  }

  void pump(Sender& s) {
    while (s.running && offer(s)) {
    }
  }

  void schedule_arrival(Sender& s) {
    bed_->sim().after(s.period, [this, &s] {
      if (!s.running) return;
      offer(s);
      schedule_arrival(s);
    });
  }

  /// Hands one tagged SDU to Host::send; false when refused.
  bool offer(Sender& s) {
    if (s.vcs.empty()) return false;  // call not (or no longer) up
    const std::uint64_t seq = sent_.size();
    aal::Bytes sdu = aal::make_pattern(
        sdu_bytes_, (static_cast<std::uint64_t>(salt_) << 32) | seq);
    const VcId vc = s.vcs[s.next_vc];
    bool accepted;
    {
      ScopedSpan span(rec_, sp_host_send_);
      accepted = s.station->host().send(vc, aal::AalType::kAal5,
                                        std::move(sdu));
    }
    ++books_now_.send_calls;
    if (!accepted) {
      ++books_now_.send_refused;
      return false;
    }
    sent_.push_back({measuring_, false});
    if (measuring_) ++window_sent_;
    s.next_vc = (s.next_vc + 1) % s.vcs.size();
    return true;
  }

  void on_sdu(const aal::Bytes& sdu, const hni::host::RxInfo& info) {
    bool intact;
    {
      ScopedSpan span(rec_, sp_verify_);
      intact = aal::verify_pattern(sdu);
    }
    books_now_.bytes_delivered += static_cast<double>(sdu.size());
    if (!intact || sdu.size() < 8) {
      fail("delivered SDU failed verify_pattern");
      return;
    }
    std::uint64_t tag = 0;
    std::memcpy(&tag, sdu.data(), sizeof tag);  // little-endian hosts
    const std::uint64_t seq = tag & 0xFFFFFFFFu;
    if ((tag >> 32) != salt_ || seq >= sent_.size()) {
      fail("delivered SDU was never sent");
      return;
    }
    SentSdu& rec = sent_[seq];
    if (rec.delivered) {
      fail("SDU delivered twice");
      return;
    }
    rec.delivered = true;
    if (rec.in_window) ++window_sent_delivered_;
    digest_.fold(atm::vc_label(info.vc));
    digest_.fold(sdu.size());
    digest_.fold(static_cast<std::uint64_t>(info.handed_up_time));
  }

  // --- measuring -------------------------------------------------------

  void run_to(sim::Time t) {
    ScopedSpan s(rec_, sp_run_);
    bed_->sim().run_until(t);
  }

  Books books() const {
    Books b = books_now_;
    for (core::Station* st : sinks_) {
      b.cells += static_cast<double>(st->nic().rx().cells_received());
    }
    for (core::Station* st : stations_) {
      b.cells_built += static_cast<double>(st->nic().tx().cells_built());
      b.dma_transfers += static_cast<double>(st->bus().transfers());
      b.framer_cells +=
          static_cast<double>(st->nic().tx().framer().cells_sent());
      b.framer_idle +=
          static_cast<double>(st->nic().tx().framer().idle_slots());
    }
    for (const net::Switch* sw : switches_) {
      b.sw_received += static_cast<double>(sw->cells_received());
      b.sw_forwarded += static_cast<double>(sw->cells_forwarded());
    }
    b.events = static_cast<double>(bed_->sim().events_fired());
    // Every link Testbed created, station-side ones included, is
    // reachable by name in the registry.
    for (const auto& m : bed_->metrics().snapshot()) {
      if (m.name.rfind("link.", 0) != 0) continue;
      if (m.name.ends_with(".cells_in")) b.link_in += m.value;
      if (m.name.ends_with(".cells_lost") ||
          m.name.ends_with(".cells_dropped_down")) {
        b.link_lost += m.value;
      }
    }
    return b;
  }

  double queued_cells() const {
    double q = 0;
    for (const net::Switch* sw : switches_) {
      q += static_cast<double>(sw->cells_queued());
    }
    return q;
  }

  void measure_window() {
    ScopedSpan window_span(rec_, sp_window_);
    const Books b0 = books();
    std::vector<SpanRecorder::Totals> s0;
    if (rec_) s0 = rec_->snapshot();
    measuring_ = true;
    const sim::Time start = bed_->now();
    double run_ns = 0;
    double prev_cells = b0.cells;
    double pending_max = 0;
    double queued_sum = 0;
    std::vector<double> slice_cost;
    for (std::size_t k = 1; k <= kSlices; ++k) {
      const sim::Time edge =
          start + static_cast<sim::Time>(
                      static_cast<double>(window_) *
                      static_cast<double>(k) / static_cast<double>(kSlices));
      const std::int64_t t0 = SpanRecorder::now_ns();
      run_to(edge);
      const double ns = static_cast<double>(SpanRecorder::now_ns() - t0);
      run_ns += ns;
      double cells = 0;
      for (core::Station* st : sinks_) {
        cells += static_cast<double>(st->nic().rx().cells_received());
      }
      if (cells > prev_cells) slice_cost.push_back(ns / (cells - prev_cells));
      prev_cells = cells;
      pending_max = std::max(
          pending_max, static_cast<double>(bed_->sim().pending()));
      queued_sum += queued_cells();
    }
    measuring_ = false;
    const Books b1 = books();
    const double cells = b1.cells - b0.cells;
    const double events = b1.events - b0.events;
    const double secs = sim::to_seconds(window_);
    goodput_mbps_ = (b1.bytes_delivered - b0.bytes_delivered) * 8.0 / secs / 1e6;
    ++attempted_;  // the window itself: it must deliver cells
    if (!(cells > 0)) {
      fail("no cells delivered in the window");
      return;
    }
    const std::optional<double> p90 = tail_percentile(slice_cost, 0.9);
    if (!p90) fail("fewer than 100 slices delivered cells");
    e2e_ = {{"ns_per_cell", per(run_ns, cells, "cells")},
            {"ns_per_cell_p90", p90.value_or(0.0)}};

    double rx_vcs = 0;
    for (core::Station* st : stations_) {
      rx_vcs += static_cast<double>(st->nic().rx().vcs_open());
    }
    const double slots = (b1.framer_cells - b0.framer_cells) +
                         (b1.framer_idle - b0.framer_idle);
    layer_ = {
        {"sim.events_per_cell", per(events, cells, "cells")},
        {"sim.ns_per_event", per(run_ns, events, "events")},
        {"sim.pending_max", pending_max},
        {"sim.telemetry.entries_per_vc",
         per(static_cast<double>(bed_->metrics().size()), rx_vcs, "vcs")},
        {"atm.framer.idle_slot_ratio",
         per(b1.framer_idle - b0.framer_idle, slots, "slots")},
        {"net.link.loss_ratio",
         per(b1.link_lost - b0.link_lost, b1.link_in - b0.link_in, "cells")},
        {"net.switch.forwarded_ratio",
         per_or_zero(b1.sw_forwarded - b0.sw_forwarded,
                     b1.sw_received - b0.sw_received)},
        {"net.switch.queued_cells_mean",
         queued_sum / static_cast<double>(kSlices)},
        {"nic.tx.cells_built_per_cell",
         per(b1.cells_built - b0.cells_built, cells, "cells")},
        {"nic.open_vc_us",
         per_or_zero(open_vc_ns_ / 1e3, static_cast<double>(vcs_opened_))},
        {"host.send_refused_ratio",
         per_or_zero(b1.send_refused - b0.send_refused,
                     b1.send_calls - b0.send_calls)},
        {"bus.dma_transfers_per_cell",
         per(b1.dma_transfers - b0.dma_transfers, cells, "cells")},
        {"sig.place_call_us",
         per_or_zero(place_call_ns_ / 1e3, static_cast<double>(calls_placed_))},
        {"sig.calls_failed_ratio",
         per_or_zero(static_cast<double>(calls_placed_ - calls_connected_),
                     static_cast<double>(calls_placed_))},
    };
    digest_.fold(static_cast<std::uint64_t>(cells));
    digest_.fold(static_cast<std::uint64_t>(events));
    digest_.fold(static_cast<std::uint64_t>(pending_max));

    if (!rec_) return;
    const std::vector<SpanRecorder::Totals> s1 = rec_->snapshot();
    const auto window_ns = [&](SpanRecorder::Id id, bool self) {
      const std::int64_t total = s1[id].total_ns - s0[id].total_ns;
      const std::int64_t child = s1[id].child_ns - s0[id].child_ns;
      return static_cast<double>(self ? total - child : total);
    };
    const double sends =
        static_cast<double>(s1[sp_host_send_].count - s0[sp_host_send_].count);
    span_metrics_ = {
        {"sim.dispatch_self_ns_per_cell", window_ns(sp_run_, true) / cells},
        {"net.link.send_ns_per_cell", window_ns(sp_link_send_, false) / cells},
        {"net.switch.receive_ns_per_cell",
         window_ns(sp_switch_rx_, false) / cells},
        {"nic.rx.receive_ns_per_cell", window_ns(sp_rx_wire_, false) / cells},
        {"aal.verify_ns_per_byte",
         per_or_zero(window_ns(sp_verify_, false),
                     b1.bytes_delivered - b0.bytes_delivered)},
        {"host.send_ns_per_sdu",
         per_or_zero(window_ns(sp_host_send_, false), sends)},
    };
  }

  void drain() {
    for (Sender& s : senders_) s.running = false;
    run_to(bed_->now() + drain_);
    if (!net_) return;
    for (std::size_t i = 0; i < call_ids_.size(); ++i) {
      if (!senders_[i].vcs.empty()) callers_[i]->release(call_ids_[i]);
    }
    run_to(bed_->now() + sim::milliseconds(25));  // release handshakes
  }

  /// Layer counters into the behaviour digest, so the traced run's
  /// digest equal to the untraced one proves the wrappers only observe.
  void fold_counters() {
    const Books b = books();
    for (const double v : {b.cells, b.events, b.cells_built, b.dma_transfers,
                           b.framer_cells, b.framer_idle, b.sw_received,
                           b.sw_forwarded, b.link_in, b.link_lost}) {
      digest_.fold(static_cast<std::uint64_t>(v));
    }
    if (net_) digest_.fold(net_->reroutes());
  }

  void teardown() {
    const std::uint64_t reroutes = net_ ? net_->reroutes() : 0;
    const bool calls_left = net_ && net_->active_calls() != 0;
    std::string json;
    ScopedSpan s(rec_, sp_teardown_);
    const std::int64_t t0 = SpanRecorder::now_ns();
    core::InvariantAuditor auditor;
    {
      ScopedSpan a(rec_, sp_audit_);
      auditor = bed_->audit(/*include_hops=*/true);
      if (net_) net_->audit_invariants(auditor);
    }
    const std::int64_t t1 = SpanRecorder::now_ns();
    {
      ScopedSpan m(rec_, sp_metrics_json_);
      json = bed_->metrics().to_json();
    }
    const std::int64_t t2 = SpanRecorder::now_ns();
    net_.reset();
    bed_.reset();
    const std::int64_t t3 = SpanRecorder::now_ns();
    teardown_s_ = static_cast<double>(t3 - t0) / 1e9;
    e2e_.insert(e2e_.end(), {{"setup_s", setup_s_},
                             {"teardown_s", teardown_s_}});
    layer_.insert(layer_.end(),
                  {{"sig.reroutes", static_cast<double>(reroutes)},
                   {"core.audit_ms", static_cast<double>(t1 - t0) / 1e6},
                   {"core.metrics_json_ms", static_cast<double>(t2 - t1) / 1e6}});
    digest_.fold_string(json);
    attempted_ += auditor.checks_run();
    for (const auto& v : auditor.violations()) {
      fail("audit: " + v.check);
    }
    ++attempted_;
    if (calls_left) fail("calls still active after release");
    reroutes_ = reroutes;
  }

  /// The workload's delivery floors and the `delivery <= 1` sanity
  /// check on the benchmark's own books.
  void check_floors() {
    const auto floor = [this](bool ok, const std::string& what) {
      ++attempted_;
      if (!ok) fail("floor: " + what);
    };
    attempted_ += window_sent_;
    const double delivery =
        window_sent_ ? static_cast<double>(window_sent_delivered_) /
                           static_cast<double>(window_sent_)
                     : 0.0;
    floor(window_sent_ > 0, "SDUs sent in the window");
    floor(delivery <= 1.0, "delivery <= 1");
    if (workload_ == "p2p-bulk") {
      floor(delivery == 1.0, "every window SDU delivered");
      floor(goodput_mbps_ >= 450.0, "goodput >= 450 Mb/s");
    } else if (workload_ == "p2p-manyvc") {
      floor(delivery == 1.0, "every window SDU delivered");
      floor(goodput_mbps_ >= 20.0, "goodput >= 20 Mb/s");
    } else if (workload_ == "triangle-failover") {
      floor(delivery >= 0.8, "delivery >= 0.8");
      floor(reroutes_ >= 1, "protection rerouted at least once");
    }
    layer_.push_back({"goodput_mbps", goodput_mbps_});
    layer_.push_back({"delivery", delivery});
  }

  /// atm::crc32 over a buffer of the workload's SDU size, repeated until
  /// 20 ms of wall time have passed.
  void time_crc32() {
    const aal::Bytes buf = aal::make_pattern(sdu_bytes_, salt_);
    std::uint32_t acc = 0;
    std::uint64_t bytes = 0;
    const std::int64_t t0 = SpanRecorder::now_ns();
    std::int64_t t1 = t0;
    while (t1 - t0 < 20'000'000) {
      for (int i = 0; i < 64; ++i) {
        acc ^= atm::crc32(std::span<const std::uint8_t>(buf));
        bytes += buf.size();
      }
      t1 = SpanRecorder::now_ns();
    }
    crc_sink_ = acc;  // an observable use keeps the loop in the binary
    span_metrics_.push_back({"atm.crc32_ns_per_byte",
                             per(static_cast<double>(t1 - t0),
                                 static_cast<double>(bytes), "bytes")});
  }

  struct Trunk {
    std::size_t id;
    std::size_t a_sw, a_port;  // receives the b->a link
    std::size_t b_sw, b_port;  // receives the a->b link
  };

  std::string workload_;
  std::uint64_t seed_;
  std::uint32_t salt_;
  sim::Rng rng_;
  std::unique_ptr<SpanRecorder> spans_;
  SpanRecorder* rec_ = nullptr;
  SpanRecorder::Id sp_setup_, sp_warmup_, sp_window_, sp_drain_,
      sp_teardown_, sp_run_, sp_link_send_, sp_switch_rx_, sp_rx_wire_,
      sp_host_send_, sp_verify_, sp_open_vc_, sp_place_call_, sp_audit_,
      sp_metrics_json_;

  std::unique_ptr<core::Testbed> bed_;
  std::unique_ptr<sig::SignalingNetwork> net_;
  std::vector<core::Station*> stations_;
  std::vector<core::Station*> sinks_;
  std::vector<net::Switch*> switches_;
  std::pair<net::Link*, net::Link*> p2p_{nullptr, nullptr};
  std::vector<Trunk> trunks_;
  std::vector<sig::CallControl*> callers_;
  std::vector<std::uint32_t> call_ids_;
  std::vector<Sender> senders_;
  std::size_t sdu_bytes_ = 0;
  sim::Time warmup_ = 0, window_ = 0, drain_ = 0;
  sim::Time flap_period_ = 0, flap_down_ = 0;

  std::vector<SentSdu> sent_;
  Books books_now_;
  bool measuring_ = false;
  std::uint64_t window_sent_ = 0;
  std::uint64_t window_sent_delivered_ = 0;
  std::size_t calls_placed_ = 0, calls_connected_ = 0;
  std::size_t vcs_opened_ = 0;
  double open_vc_ns_ = 0, place_call_ns_ = 0;
  double setup_s_ = 0, teardown_s_ = 0;
  double goodput_mbps_ = 0;
  std::uint64_t reroutes_ = 0;
  std::uint32_t crc_sink_ = 0;

  core::Digest digest_;
  std::uint64_t attempted_ = 0;
  std::vector<std::string> failures_;
  Metrics e2e_, layer_, span_metrics_;
};

int usage() {
  std::cerr << "usage: hostbench --workload NAME --seed N [--traced] "
               "[--spans PATH]\n";
  return 2;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  g_main_ns = SpanRecorder::now_ns();
  std::string workload, spans_path;
  std::uint64_t seed = 0;
  bool have_seed = false, traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      try {
        seed = std::stoull(argv[++i]);
      } catch (const std::exception&) {
        return usage();
      }
      have_seed = true;
    } else if (a == "--traced") {
      traced = true;
    } else if (a == "--spans" && i + 1 < argc) {
      spans_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (!valid_name(workload) || !have_seed) return usage();
  Bench bench(workload, seed, traced);
  try {
    if (!bench.run()) {
      std::cerr << "hostbench: unknown workload '" << workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << "\n";
    return 3;
  }
  if (!spans_path.empty()) bench.write_spans(spans_path);
  bench.print_json(std::cout);
  return bench.ok() ? 0 : 1;
}
