// The assembled host-network interface.
//
// One Nic owns a transmit path and a receive path sharing the host bus
// and host memory, configured by a single NicConfig. This is the unit a
// scenario instantiates per host; core::Testbed wires Nics to links and
// switches.

#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "nic/rx_path.hpp"
#include "nic/tx_path.hpp"
#include "sim/flat_table.hpp"
#include "sim/trace.hpp"

namespace hni::nic {

/// Closed-loop congestion control: EFCI marks observed on RX turn into
/// backward RM cells; RM cells received on TX VCs throttle the source
/// multiplicatively and recover after a quiet period. Disabled by
/// default — the overload plane is opt-in (the fleet's efci_rm and
/// abr_loop rows, mux-overload-on-* among them, turn it on).
struct CongestionControlConfig {
  bool enabled = false;
  /// EFCI marks on a VC within `window` that trigger one backward RM.
  std::uint32_t marks_per_rm = 8;
  sim::Time window = sim::microseconds(250);
  /// Minimum gap between RM cells per VC (paces the backward stream).
  sim::Time rm_min_gap = sim::microseconds(250);
  /// Multiplicative decrease applied per congestion RM received.
  double decrease = 0.75;
  /// Multiplicative increase applied per quiet recovery period.
  double increase = 1.5;
  double min_rate_factor = 1.0 / 64;
  /// RM-free time on a throttled VC before the rate steps back up.
  sim::Time recovery_period = sim::milliseconds(1);
  /// Converge the shaper to the explicit rate carried in backward RM
  /// cells (the ERICA loop: each switch on the path stamps the min of
  /// its grant, so the source lands on its max-min fair share directly)
  /// instead of the blind multiplicative decrease. RM cells without an
  /// ER stamp still apply the binary CI behaviour above.
  bool explicit_rate = false;
};

/// OAM F5 continuity checking (I.610): while a VC is CC-activated, the
/// source injects a periodic heartbeat cell and the sink declares
/// loss-of-continuity (LOC) when *nothing* — data, OAM or RM — arrives
/// for loss_multiplier periods. A standing AIS suppresses the LOC
/// declaration: the defect is already alarmed hop-by-hop, and LOC would
/// double-report the same failure to the protection plane.
struct ContinuityCheckConfig {
  bool enabled = false;
  /// Heartbeat injection period per CC-activated VC.
  sim::Time period = sim::microseconds(200);
  /// Silence threshold, in periods, before LOC is declared.
  double loss_multiplier = 3.5;
  /// How long one received AIS cell suppresses LOC declaration.
  sim::Time ais_hold = sim::milliseconds(2);
};

struct NicConfig {
  TxPathConfig tx{};
  RxPathConfig rx{};
  proc::FirmwareProfile firmware{};
  atm::LineRate line = atm::sts3c();

  /// While loss-of-signal stands on the receive link, an AIS cell is
  /// inserted into the RX stream per open VC on this period (I.610
  /// nominal is one per second; compressed for simulation timescales).
  /// 0 disables alarm insertion (recovery off).
  sim::Time ais_period = sim::microseconds(500);
  /// An RDI-paused VC resumes this long after the last RDI cell —
  /// alarm clears when the defect indications stop arriving.
  sim::Time rdi_hold = sim::milliseconds(2);
  /// Closed-loop EFCI/RM congestion control (off by default).
  CongestionControlConfig congestion{};
  /// Per-VC OAM continuity checking (off by default).
  ContinuityCheckConfig cc{};

  /// Applies one engine clock to both sides (convenience for sweeps).
  NicConfig& with_clock(double hz) {
    tx.engine.clock_hz = hz;
    rx.engine.clock_hz = hz;
    return *this;
  }
};

class Nic {
 public:
  Nic(sim::Simulator& sim, bus::Bus& bus, bus::HostMemory& memory,
      NicConfig config);

  TxPath& tx() { return *tx_; }
  RxPath& rx() { return *rx_; }
  const TxPath& tx() const { return *tx_; }
  const RxPath& rx() const { return *rx_; }

  /// Opens `vc` in both directions with the given AAL.
  void open_vc(atm::VcId vc, aal::AalType aal) {
    rx_->open_vc(vc, aal);
    open_vcs_.push_back(vc);
  }

  /// Closes `vc`: tears down reassembly state, stops alarm insertion
  /// for it (a closed VC must not receive AIS cells), abandons any
  /// loopback still outstanding on it, and clears a standing RDI pause
  /// — per-VC fault state must not outlive the connection.
  void close_vc(atm::VcId vc);

  /// Connects the transmit framer to an outgoing link and starts it.
  void attach_tx(net::Link& link);

  /// Connects an incoming link: sets its sink to the RX path and
  /// registers this NIC's loss-of-signal detector as a state observer
  /// (link down -> AIS insertion -> RDI reply upstream).
  void attach_rx(net::Link& link);

  // --- OAM fault management -------------------------------------------
  /// Fires when a loopback response returns: (vc, tag, round-trip time).
  using LoopbackHandler =
      std::function<void(atm::VcId, std::uint64_t, sim::Time)>;
  void set_loopback_handler(LoopbackHandler handler) {
    loopback_handler_ = std::move(handler);
  }
  /// Sends an OAM loopback request on `vc` (the far-end Nic answers
  /// automatically).
  void send_loopback(atm::VcId vc, std::uint64_t tag);

  // --- continuity checking (OAM F5 CC) --------------------------------
  /// Which defect a DefectObserver is reporting.
  enum class Defect : std::uint8_t {
    kLoc,  // loss of continuity (CC silence threshold crossed)
    kAis,  // alarm indication signal standing on the VC
    kRdi,  // remote defect indication standing on the VC
  };
  /// Fires on every defect edge (active = declared, !active = cleared)
  /// of a CC-monitored VC — the signaling agent's protection trigger.
  using DefectObserver = std::function<void(atm::VcId, Defect, bool)>;
  void add_defect_observer(DefectObserver observer) {
    defect_observers_.push_back(std::move(observer));
  }
  /// Activates CC on `vc` (no-op unless config().cc.enabled): starts
  /// the heartbeat source and the sink-side LOC detector.
  void start_cc(atm::VcId vc);
  /// Deactivates CC on `vc`; a standing LOC is cleared (and counted in
  /// cc_loss_cleared, so the declare/clear books keep balancing).
  void stop_cc(atm::VcId vc);
  std::uint64_t cc_cells_sent() const { return cc_sent_; }
  std::uint64_t cc_cells_received() const { return cc_received_; }
  std::uint64_t cc_loss_declared() const { return cc_declared_; }
  std::uint64_t cc_loss_cleared() const { return cc_cleared_; }
  /// VCs currently CC-activated; never exceeds the open VC count.
  std::size_t cc_monitored() const { return cc_.size(); }
  /// LOC alarms standing right now. Conservation (the auditor checks
  /// it): declared == cleared + standing.
  std::size_t cc_loss_standing() const {
    std::size_t n = 0;
    cc_.for_each([&n](std::uint32_t, const CcVc& st) {
      if (st.loc) ++n;
    });
    return n;
  }
  /// Whether LOC currently stands on `vc`.
  bool cc_loss(atm::VcId vc) const {
    const CcVc* st = cc_.find(atm::vc_label(vc)).value;
    return st != nullptr && st->loc;
  }

  /// Attaches a tracer: LOC declare/clear edges emit kOamCc events
  /// tagged `name`.
  void set_tracer(sim::Tracer* tracer, const std::string& name) {
    tracer_ = tracer;
    trace_source_ = tracer ? tracer->intern(name) : 0;
  }

  std::uint64_t loopbacks_sent() const { return loopbacks_sent_; }
  std::uint64_t loopbacks_answered() const { return loopbacks_answered_; }
  std::uint64_t loopbacks_completed() const { return loopbacks_completed_; }
  /// Requests abandoned because their VC closed before the reply came.
  std::uint64_t loopbacks_abandoned() const { return loopbacks_abandoned_; }
  /// Requests still awaiting a reply. Conservation (the auditor checks
  /// it): sent == completed + abandoned + outstanding.
  std::size_t loopbacks_outstanding() const {
    return outstanding_loopbacks_.size();
  }
  /// VCs currently held in RDI pause; never exceeds the open VC count.
  std::size_t rdi_pending() const { return rdi_until_.size(); }
  std::size_t open_vc_count() const { return open_vcs_.size(); }

  // --- alarm statistics -----------------------------------------------
  /// Loss-of-signal currently standing on the receive link.
  bool los() const { return los_; }
  std::uint64_t los_events() const { return los_events_; }
  /// AIS cells this NIC inserted into its own RX stream under LOS.
  std::uint64_t ais_inserted() const { return ais_inserted_; }
  std::uint64_t ais_received() const { return ais_received_; }
  std::uint64_t rdi_sent() const { return rdi_sent_; }
  std::uint64_t rdi_received() const { return rdi_received_; }

  // --- congestion control (EFCI -> RM -> throttle) --------------------
  /// Fires whenever a VC's TX rate factor changes (throttle or
  /// recovery); the Host surfaces this to applications.
  using CongestionHandler = std::function<void(atm::VcId, double)>;
  void set_congestion_handler(CongestionHandler handler) {
    congestion_handler_ = std::move(handler);
  }
  /// Backward RM cells this NIC generated from observed EFCI marks.
  std::uint64_t rm_cells_sent() const { return rm_sent_; }
  /// RM cells received and handled by the controller.
  std::uint64_t rm_cells_received() const { return rm_received_; }
  /// Times a congestion RM tightened a VC's rate factor.
  std::uint64_t congestion_throttle_events() const {
    return throttle_events_;
  }
  /// Quiet-period steps that loosened a throttle back toward 1.0.
  std::uint64_t congestion_recoveries() const { return recoveries_; }
  /// The TX rate factor currently applied to `vc` (1.0 = unthrottled).
  double vc_rate_factor(atm::VcId vc) const {
    return tx_->rate_factor(vc);
  }

  const NicConfig& config() const { return config_; }

  /// Surfaces both paths' books plus the NIC's OAM/alarm statistics
  /// under `scope` ("tx.…", "rx.…", "oam.…").
  void register_metrics(const sim::MetricScope& scope) {
    tx_->register_metrics(scope.sub("tx"));
    rx_->register_metrics(scope.sub("rx"));
    const sim::MetricScope oam = scope.sub("oam");
    oam.gauge("los_events",
              [this] { return static_cast<double>(los_events_); });
    oam.gauge("ais_inserted",
              [this] { return static_cast<double>(ais_inserted_); });
    oam.gauge("ais_received",
              [this] { return static_cast<double>(ais_received_); });
    oam.gauge("rdi_sent", [this] { return static_cast<double>(rdi_sent_); });
    oam.gauge("rdi_received",
              [this] { return static_cast<double>(rdi_received_); });
    oam.gauge("loopbacks_completed",
              [this] { return static_cast<double>(loopbacks_completed_); });
    const sim::MetricScope cong = scope.sub("congestion");
    cong.gauge("rm_sent", [this] { return static_cast<double>(rm_sent_); });
    cong.gauge("rm_received",
               [this] { return static_cast<double>(rm_received_); });
    cong.gauge("throttle_events",
               [this] { return static_cast<double>(throttle_events_); });
    cong.gauge("recoveries",
               [this] { return static_cast<double>(recoveries_); });
    oam.gauge("cc_sent", [this] { return static_cast<double>(cc_sent_); });
    oam.gauge("cc_received",
              [this] { return static_cast<double>(cc_received_); });
    oam.gauge("cc_loss_declared",
              [this] { return static_cast<double>(cc_declared_); });
    oam.gauge("cc_loss_cleared",
              [this] { return static_cast<double>(cc_cleared_); });
  }

 private:
  /// A loopback awaiting its reply. Tagged with the VC so close_vc can
  /// sweep the requests a dying connection will never answer (keyed by
  /// tag alone, the old table could not find them — they leaked).
  struct PendingLoopback {
    atm::VcId vc{};
    sim::Time sent = 0;
  };

  /// Per-VC congestion-control state, shared between the receiver role
  /// (EFCI observation -> RM generation) and the sender role (RM
  /// reception -> throttle) since a duplex VC plays both.
  struct CongestionVc {
    // receiver side
    std::uint32_t marks = 0;          // EFCI marks in the current window
    sim::Time window_start = 0;
    sim::Time last_rm_sent = 0;
    bool rm_ever_sent = false;
    // sender side
    double rate_factor = 1.0;
    sim::Time last_congestion = 0;
    bool recovery_armed = false;      // a recovery timer is pending
  };

  /// Per-VC continuity-check state: heartbeat source + LOC sink.
  struct CcVc {
    atm::VcId vc{};
    sim::Time last_arrival = 0;  // any cell on the VC resets this
    sim::Time ais_until = 0;     // AIS-hold deadline
    bool ais_standing = false;
    bool loc = false;            // loss-of-continuity declared
    std::uint64_t epoch = 0;     // invalidates stale heartbeat timers
  };

  void on_oam(atm::VcId vc, const atm::OamCell& oam);
  void on_activity(atm::VcId vc);
  void cc_tick(atm::VcId vc, std::uint64_t epoch);
  void notify_defect(atm::VcId vc, Defect defect, bool active);
  void trace_cc(atm::VcId vc, bool declared);
  void on_efci(atm::VcId vc);
  void on_rm(atm::VcId vc, const atm::Cell& cell);
  void schedule_recovery(atm::VcId vc);
  void on_link_state(bool down);
  void insert_ais();
  void schedule_rdi_resume(atm::VcId vc);

  NicConfig config_;
  sim::Simulator* sim_ = nullptr;
  std::unique_ptr<TxPath> tx_;
  std::unique_ptr<RxPath> rx_;
  LoopbackHandler loopback_handler_;
  sim::FlatMap<std::uint64_t, PendingLoopback> outstanding_loopbacks_;
  std::uint64_t loopbacks_sent_ = 0;
  std::uint64_t loopbacks_answered_ = 0;
  std::uint64_t loopbacks_completed_ = 0;
  std::uint64_t loopbacks_abandoned_ = 0;

  std::vector<atm::VcId> open_vcs_;
  bool los_ = false;
  std::uint64_t ais_epoch_ = 0;  // invalidates stale AIS timers
  // RDI hold deadline per paused VC, keyed on the packed VC label.
  sim::FlatMap<std::uint32_t, sim::Time> rdi_until_;
  std::uint64_t los_events_ = 0;
  std::uint64_t ais_inserted_ = 0;
  std::uint64_t ais_received_ = 0;
  std::uint64_t rdi_sent_ = 0;
  std::uint64_t rdi_received_ = 0;

  // Continuity-check state, keyed on the packed VC label.
  sim::FlatMap<std::uint32_t, CcVc> cc_;
  std::vector<DefectObserver> defect_observers_;
  std::uint64_t cc_sent_ = 0;
  std::uint64_t cc_received_ = 0;
  std::uint64_t cc_declared_ = 0;
  std::uint64_t cc_cleared_ = 0;
  sim::Tracer* tracer_ = nullptr;
  std::uint16_t trace_source_ = 0;

  // Congestion-control state, keyed on the packed VC label.
  sim::FlatMap<std::uint32_t, CongestionVc> congestion_;
  CongestionHandler congestion_handler_;
  std::uint64_t rm_sent_ = 0;
  std::uint64_t rm_received_ = 0;
  std::uint64_t throttle_events_ = 0;
  std::uint64_t recoveries_ = 0;
};

}  // namespace hni::nic
