// The assembled host-network interface.
//
// One Nic owns a transmit path and a receive path sharing the host bus
// and host memory, configured by a single NicConfig. This is the unit a
// scenario instantiates per host; core::Testbed wires Nics to links and
// switches.

#pragma once

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
  /// Multiplicative decrease applied per congestion RM received.
  double decrease = 0.75;
  /// Converge the shaper to the explicit rate carried in backward RM
  /// cells (the ERICA loop: each switch on the path stamps the min of
  /// its grant, so the source lands on its max-min fair share directly)
  /// instead of the blind multiplicative decrease. RM cells without an
  /// ER stamp still apply the binary CI behaviour above.
  bool explicit_rate = false;
};

/// RM-free time on a throttled VC before the rate steps back up.
inline constexpr sim::Time kRecoveryPeriod = sim::milliseconds(1);

/// OAM F5 continuity checking (I.610): while a VC is CC-activated, the
/// source injects a periodic heartbeat cell and the sink declares
/// loss-of-continuity (LOC) when *nothing* — data, OAM or RM — arrives
/// for kCcLossMultiplier periods. A standing AIS suppresses the LOC
/// declaration: the defect is already alarmed hop-by-hop, and LOC would
/// double-report the same failure to the protection plane.
struct ContinuityCheckConfig {
  bool enabled = false;
};

/// Heartbeat injection period per CC-activated VC.
inline constexpr sim::Time kCcPeriod = sim::microseconds(200);
/// Silence threshold, in periods, before LOC is declared.
inline constexpr double kCcLossMultiplier = 3.5;
/// How long one received AIS cell suppresses LOC declaration.
inline constexpr sim::Time kAisHold = sim::milliseconds(2);
/// An RDI-paused VC resumes this long after the last RDI cell —
/// alarm clears when the defect indications stop arriving.
inline constexpr sim::Time kRdiHold = sim::milliseconds(2);

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
  void open_vc(atm::VcId vc, aal::AalType aal) { rx_->open_vc(vc, aal); }

  /// Closes `vc`: tears down reassembly state, stops alarm insertion
  /// for it (a closed VC must not receive AIS cells), abandons any
  /// loopback still outstanding on it, and erases its VcRecord — a
  /// standing RDI pause or throttle is lifted, and per-VC fault state
  /// and timers do not outlive the connection.
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
  std::uint64_t cc_cells_sent() const { return cc_sent_.value(); }
  std::uint64_t cc_cells_received() const { return cc_received_.value(); }
  std::uint64_t cc_loss_declared() const { return cc_declared_.value(); }
  std::uint64_t cc_loss_cleared() const { return cc_cleared_.value(); }
  /// VCs currently CC-activated; never exceeds the open VC count.
  std::size_t cc_monitored() const {
    return count_records([](const VcRecord& r) { return r.cc_token != 0; });
  }
  /// LOC alarms standing right now. Conservation (the auditor checks
  /// it): declared == cleared + standing.
  std::size_t cc_loss_standing() const {
    return count_records([](const VcRecord& r) { return r.loc; });
  }
  /// Whether LOC currently stands on `vc`.
  bool cc_loss(atm::VcId vc) const {
    const VcRecord* rec = records_.find(atm::vc_label(vc)).value;
    return rec != nullptr && rec->loc;
  }

  /// Attaches a tracer: LOC declare/clear edges emit kOamCc events
  /// tagged `name`.
  void set_tracer(sim::Tracer* tracer, const std::string& name) {
    tracer_ = tracer;
    trace_source_ = tracer ? tracer->intern(name) : 0;
  }

  std::uint64_t loopbacks_sent() const { return loopbacks_sent_; }
  std::uint64_t loopbacks_answered() const { return loopbacks_answered_; }
  std::uint64_t loopbacks_completed() const {
    return loopbacks_completed_.value();
  }
  /// Requests abandoned because their VC closed before the reply came.
  std::uint64_t loopbacks_abandoned() const { return loopbacks_abandoned_; }
  /// Requests still awaiting a reply. Conservation (the auditor checks
  /// it): sent == completed + abandoned + outstanding.
  std::size_t loopbacks_outstanding() const {
    return outstanding_loopbacks_.size();
  }
  /// VCs currently held in RDI pause; never exceeds the open VC count.
  std::size_t rdi_pending() const {
    return count_records([](const VcRecord& r) { return r.rdi_token != 0; });
  }
  std::size_t open_vc_count() const { return rx_->vcs_open(); }

  // --- alarm statistics -----------------------------------------------
  /// Loss-of-signal currently standing on the receive link.
  bool los() const { return los_; }
  std::uint64_t los_events() const { return los_events_.value(); }
  /// AIS cells this NIC inserted into its own RX stream under LOS.
  std::uint64_t ais_inserted() const { return ais_inserted_.value(); }
  std::uint64_t ais_received() const { return ais_received_.value(); }
  std::uint64_t rdi_sent() const { return rdi_sent_.value(); }
  std::uint64_t rdi_received() const { return rdi_received_.value(); }

  // --- congestion control (EFCI -> RM -> throttle) --------------------
  /// Backward RM cells this NIC generated from observed EFCI marks.
  std::uint64_t rm_cells_sent() const { return rm_sent_.value(); }
  /// RM cells received and handled by the controller.
  std::uint64_t rm_cells_received() const { return rm_received_.value(); }
  /// Times a congestion RM tightened a VC's rate factor.
  std::uint64_t congestion_throttle_events() const {
    return throttle_events_.value();
  }
  /// Quiet-period steps that loosened a throttle back toward 1.0.
  std::uint64_t congestion_recoveries() const { return recoveries_.value(); }
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
    oam.expose("los_events", los_events_);
    oam.expose("ais_inserted", ais_inserted_);
    oam.expose("ais_received", ais_received_);
    oam.expose("rdi_sent", rdi_sent_);
    oam.expose("rdi_received", rdi_received_);
    oam.expose("loopbacks_completed", loopbacks_completed_);
    oam.expose("cc_sent", cc_sent_);
    oam.expose("cc_received", cc_received_);
    oam.expose("cc_loss_declared", cc_declared_);
    oam.expose("cc_loss_cleared", cc_cleared_);
    const sim::MetricScope cong = scope.sub("congestion");
    cong.expose("rm_sent", rm_sent_);
    cong.expose("rm_received", rm_received_);
    cong.expose("throttle_events", throttle_events_);
    cong.expose("recoveries", recoveries_);
  }

 private:
  /// A loopback awaiting its reply. Tagged with the VC so close_vc can
  /// sweep the requests a dying connection will never answer (keyed by
  /// tag alone, the old table could not find them — they leaked).
  struct PendingLoopback {
    atm::VcId vc{};
    sim::Time sent = 0;
  };

  /// The NIC's own state for one VC (DESIGN §11): the RDI hold, CC,
  /// and both congestion roles. The first RDI, start_cc, EFCI mark or
  /// RM cell on the VC creates it, close_vc erases it. Each part that
  /// arms a timer holds the timer's token (0: idle), drawn from one
  /// NIC-wide counter; a timer acts only while its token is still there.
  struct VcRecord {
    // RDI: the TX lane stays paused until rdi_until.
    sim::Time rdi_until = 0;
    std::uint64_t rdi_token = 0;   // nonzero while the hold stands
    // Continuity check: heartbeat source + LOC sink.
    sim::Time last_arrival = 0;    // any cell on the VC resets this
    sim::Time ais_until = 0;       // AIS-hold deadline
    std::uint64_t cc_token = 0;    // nonzero while CC is active
    bool ais_standing = false;
    bool loc = false;              // loss-of-continuity declared
    // Congestion: set by the first EFCI mark or RM cell, and tells
    // close_vc to lift the throttle.
    bool congestion = false;
    // Receiver side: EFCI observation -> RM generation.
    bool rm_ever_sent = false;
    std::uint32_t marks = 0;       // EFCI marks in the current window
    sim::Time window_start = 0;
    sim::Time last_rm_sent = 0;
    // Sender side: RM reception -> throttle -> quiet-period recovery.
    sim::Time last_congestion = 0;
    std::uint64_t recovery_token = 0;  // nonzero while recovery is armed
  };
  static_assert(sizeof(VcRecord) == 80, "field order keeps VcRecord packed");

  VcRecord& record(atm::VcId vc) {
    return *records_.try_emplace(atm::vc_label(vc)).first;
  }
  /// `vc`'s record if its `part` token is still `token`; null for a
  /// stale timer.
  VcRecord* armed(atm::VcId vc, std::uint64_t VcRecord::*part,
                  std::uint64_t token) {
    VcRecord* rec = records_.find(atm::vc_label(vc)).value;
    return rec != nullptr && rec->*part == token ? rec : nullptr;
  }
  template <typename Pred>
  std::size_t count_records(Pred pred) const {
    std::size_t n = 0;
    records_.for_each([&](std::uint32_t, const VcRecord& r) {
      if (pred(r)) ++n;
    });
    return n;
  }

  // The RX engine's calls for cells on open VCs (RxPath is the caller).
  friend class RxPath;
  void on_oam(atm::VcId vc, const atm::OamCell& oam);
  void on_activity(atm::VcId vc);
  void cc_tick(atm::VcId vc, std::uint64_t token);
  void notify_defect(atm::VcId vc, Defect defect, bool active);
  void trace_cc(atm::VcId vc, bool declared);
  void clear_loc(atm::VcId vc);
  void on_efci(atm::VcId vc);
  void on_rm(atm::VcId vc, const atm::Cell& cell);
  void arm_recovery(VcRecord& rec, atm::VcId vc);
  void schedule_recovery(atm::VcId vc, std::uint64_t token);
  void on_link_state(bool down);
  void insert_ais();
  void schedule_rdi_resume(atm::VcId vc, sim::Time until,
                           std::uint64_t token);

  NicConfig config_;
  sim::Simulator* sim_ = nullptr;
  std::unique_ptr<TxPath> tx_;
  std::unique_ptr<RxPath> rx_;
  LoopbackHandler loopback_handler_;
  sim::FlatMap<std::uint64_t, PendingLoopback> outstanding_loopbacks_;
  std::uint64_t loopbacks_sent_ = 0;
  std::uint64_t loopbacks_answered_ = 0;
  sim::Counter loopbacks_completed_;
  std::uint64_t loopbacks_abandoned_ = 0;

  // Per-VC records, keyed on the packed VC label, and the counter
  // their timer tokens come from.
  sim::FlatMap<std::uint32_t, VcRecord> records_;
  std::uint64_t last_token_ = 0;

  bool los_ = false;
  std::uint64_t ais_epoch_ = 0;  // invalidates stale AIS timers
  sim::Counter los_events_;
  sim::Counter ais_inserted_;
  sim::Counter ais_received_;
  sim::Counter rdi_sent_;
  sim::Counter rdi_received_;

  std::vector<DefectObserver> defect_observers_;
  sim::Counter cc_sent_;
  sim::Counter cc_received_;
  sim::Counter cc_declared_;
  sim::Counter cc_cleared_;
  sim::Tracer* tracer_ = nullptr;
  std::uint16_t trace_source_ = 0;

  sim::Counter rm_sent_;
  sim::Counter rm_received_;
  sim::Counter throttle_events_;
  sim::Counter recoveries_;
};

}  // namespace hni::nic
