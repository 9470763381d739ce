// Output-buffered ATM switch.
//
// Minimal but real: per-input VC translation (the (port, VPI/VCI) ->
// (port', VPI'/VCI') map every ATM switch maintains), per-VC output
// queues drawing on a shared per-port buffer pool of bounded depth, and
// an output scheduler that serves one cell per output slot at the
// port's line rate (global-FIFO or per-VC round-robin service order).
// This is enough substrate to create the congestion losses and
// multiplexing jitter the host interface must live with.
//
// The discard/overload plane, in the order a cell meets it:
//
//   HEC --> route lookup --> ER stamp (backward RM) --> UPC
//       (GCRA drop/tag or trTCM green/yellow/red) --> EPD/PPD (pool or
//       per-VC gate) --> WRED --> per-VC residency cap --> pool
//       overflow --> CLP threshold --> EFCI mark --> enqueue
//
// * UPC is either the classic single-GCRA policer or a trTCM two-rate
//   meter (atm::TrTcm): green passes, yellow tags CLP=1, red drops.
// * EPD/PPD shed whole AAL5 frames once the pool passes epd_threshold.
// * WRED sheds early and probabilistically as occupancy climbs, with a
//   lower threshold band for CLP-tagged cells so UPC's tag verdict is
//   consequential: tagged traffic dies first under pressure.
// * EFCI marks surviving user-data cells once occupancy passes
//   efci_threshold — the forward congestion signal endpoints close the
//   loop on (nic::Nic turns observed marks into backward RM cells that
//   throttle the source).
// * Control cells (OAM and RM, PTI 0b1xx) are exempt from WRED, the
//   CLP threshold and EFCI, and draw on a small reserved headroom above
//   the shared pool — the congestion signal must not be discarded or
//   mutated by the congestion it measures.
// * With abr.enabled the switch runs an ERICA-style explicit-rate loop:
//   per-port input rate and ABR share are measured over fixed windows,
//   and backward RM cells are stamped with min(carried ER, max(fair
//   share, vc_rate / load_factor)) so sources converge to max-min fair
//   rates instead of oscillating on binary CI feedback.

#pragma once

#include <cstdint>
#include <optional>
#include <functional>
#include <string>
#include <vector>

#include "atm/cell.hpp"
#include "atm/hec.hpp"
#include "atm/gcra.hpp"
#include "atm/meter.hpp"
#include "atm/phy.hpp"
#include "net/link.hpp"
#include "sim/flat_table.hpp"
#include "sim/random.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace hni::net {

/// Service order across the queues of one output port. Every variant
/// is the same deficit round robin over the port's active queues; the
/// scheduler sets which queue a cell joins and the grant that queue
/// gets per turn.
enum class SwitchScheduler : std::uint8_t {
  kFifo,        // one shared queue per port with an unbounded grant:
                // global arrival order (classic shared FIFO behaviour)
  kRoundRobin,  // per-VC queues, grant 1: one cell per active VC per
                // turn (no head-of-line capture by a bursty connection)
  kDwrr,        // per-VC queues, grant `weight`: deficit-weighted round
                // robin (sch_dwrr-style deficit counters), so service
                // shares track the configured weights instead of 1/N
};

/// WRED-style early discard on the shared output pool. Tagged (CLP=1)
/// cells use the clp1_* band, which sits below the untagged band, so
/// discard-eligible traffic absorbs the early losses. Drop probability
/// ramps linearly from 0 at min_cells, reaching exactly max_p at
/// max_cells; only beyond max_cells does the verdict become a forced
/// drop with no RNG draw. Decisions use the instantaneous pool occupancy —
/// "WRED-style", not a literal EWMA RED — and a seeded deterministic
/// RNG so runs replay exactly.
struct WredConfig {
  bool enabled = false;
  std::size_t min_cells = 0;
  std::size_t max_cells = 0;
  double max_p = 0.1;
  std::size_t clp1_min_cells = 0;
  std::size_t clp1_max_cells = 0;
  double clp1_max_p = 1.0;
  std::uint64_t seed = 0xEC4;
};

/// Fraction of the port rate ERICA aims to fill; the slack absorbs
/// measurement noise so queues drain instead of sitting full.
inline constexpr double kAbrTargetUtilization = 0.9;
/// Measurement window: per-port input rate, ABR share and per-VC
/// rates are averaged over this interval (advanced lazily on
/// arrivals — no standing timer, so idle runs still drain).
inline constexpr sim::Time kAbrInterval = sim::milliseconds(1);

struct SwitchConfig {
  std::size_t ports = 2;
  std::size_t queue_cells = 128;   // per-output shared pool, in cells
  /// Pool depth at and beyond which CLP=1 cells are dropped (<= queue_cells).
  std::size_t clp_threshold = 128;
  atm::LineRate port_rate = atm::sts3c();
  /// Early Packet Discard: when the *first* cell of an AAL5 PDU arrives
  /// with the output pool at or beyond this depth, the whole PDU is
  /// discarded instead of shedding random cells from many PDUs. Partial
  /// Packet Discard engages automatically after any mid-PDU loss: the
  /// rest of the damaged PDU is dropped (its final cell is forwarded so
  /// the receiver's reassembler terminates cleanly instead of splicing).
  /// 0 disables frame-aware discard. AAL5 VCs only (uses the PTI AUU
  /// end-of-PDU bit); leave disabled on AAL3/4 paths.
  std::size_t epd_threshold = 0;
  /// Per-VC buffer accounting at the per-VC output queues (kRoundRobin
  /// and kDwrr only — kFifo has no per-VC queues and ignores both).
  /// vc_epd_cells: a fresh AAL5 PDU is EPD-discarded when its own VC's
  /// output queue already holds this many cells. vc_queue_cells: hard
  /// cap on one VC's pool residency; cells beyond it are dropped
  /// (cells_dropped_vc_limit) and, mid-PDU on a frame-aware VC, the
  /// damaged remainder is shed via PPD. Bounding each connection's
  /// claim on the shared pool is what makes the DWRR weights govern
  /// *delivered* shares: without it a slow VC's standing backlog fills
  /// the pool and gates every other VC's admission at the shared
  /// thresholds. 0 disables either check.
  std::size_t vc_epd_cells = 0;
  std::size_t vc_queue_cells = 0;
  /// Service order across the output queues. kFifo reproduces the
  /// historical shared-FIFO switch exactly.
  SwitchScheduler scheduler = SwitchScheduler::kFifo;
  /// Color-aware random early discard (see WredConfig).
  WredConfig wred{};
  /// Pool depth at and beyond which surviving user-data cells get the
  /// EFCI congestion mark (PTI bit 0b010). 0 disables marking.
  std::size_t efci_threshold = 0;
  /// Reserved headroom above queue_cells that only control cells
  /// (OAM/RM) may draw on — the closed-loop congestion signal survives
  /// a saturated pool instead of being tail-dropped by the very
  /// congestion it reports. 0 gives control cells no protection.
  std::size_t control_reserve_cells = 8;
  /// ERICA-style explicit-rate ABR loop (kAbrTargetUtilization,
  /// kAbrInterval).
  struct AbrConfig {
    bool enabled = false;
  } abr{};
  /// Output clock oscillator offset in ppm; nullopt lets core::Testbed
  /// assign a realistic random value.
  std::optional<double> clock_ppm{};
};

class Switch {
 public:
  Switch(sim::Simulator& sim, SwitchConfig config);

  /// Routes (in_port, vc) to (out_port, out_vc). `weight` is the VC's
  /// DWRR service weight on the output port (cells granted per
  /// scheduling round; ignored by kFifo/kRoundRobin). `abr` marks the
  /// VC as rate-adaptive for the ERICA explicit-rate loop.
  void add_route(std::size_t in_port, atm::VcId vc, std::size_t out_port,
                 atm::VcId out_vc, std::uint32_t weight = 1,
                 bool abr = false);

  /// What UPC does with a non-conforming cell.
  enum class PoliceAction : std::uint8_t {
    kDrop,  // discard immediately
    kTag,   // set CLP=1 (discard-eligible downstream)
  };

  /// Installs usage parameter control on (in_port, vc): cells are
  /// checked against GCRA(1/pcr, cdvt) on arrival.
  void add_policer(std::size_t in_port, atm::VcId vc,
                   double pcr_cells_per_second, sim::Time cdvt,
                   PoliceAction action);

  /// Installs a trTCM two-rate meter on (in_port, vc), replacing any
  /// single-GCRA policer there: green cells pass, yellow cells are
  /// tagged CLP=1 (counted in cells_policed_tagged, so WRED's lower
  /// band sheds them first), red cells are dropped (counted in
  /// cells_policed_dropped). The per-color books satisfy the meter
  /// conservation identity offered == green + yellow + red.
  void add_meter(std::size_t in_port, atm::VcId vc,
                 const atm::TrTcmConfig& meter);

  /// Tears down a route (and its policer/meter, if any). Cells of the
  /// closed VC still resident in a per-VC output queue are purged —
  /// counted as overflow drops so the queue-stage conservation identity
  /// keeps balancing — and the queue's active-ring ticket is retired
  /// with the record (no stale ring entry, no dangling arena pointer).
  /// Returns true if a route existed. Subsequent cells on the VC count
  /// as unroutable.
  bool remove_route(std::size_t in_port, atm::VcId vc);

  /// Whether (in_port, vc) has a route installed.
  bool has_route(std::size_t in_port, atm::VcId vc) const {
    const auto found = vcs_.find(route_label(in_port, vc));
    return found.value != nullptr && found.value->has_route;
  }
  std::size_t route_count() const { return route_count_; }

  /// Steady-state bytes the per-VC state (index + pooled records)
  /// occupies — bench P2's bytes/VC column.
  std::size_t vc_state_bytes() const { return vcs_.memory_bytes(); }

  /// Visits every route as fn(in_port, in_vc, out_port, out_vc), in
  /// ascending (in_port, vpi, vci) order — audit iteration stays
  /// byte-deterministic however the table was populated. The callback
  /// may add or remove routes (mutations do not disturb the walk).
  template <typename Fn>
  void for_each_route(Fn&& fn) {
    vcs_.for_each_sorted([&fn](std::uint32_t label, VcEntry& e) {
      if (!e.has_route) return;
      fn(static_cast<std::size_t>(label >> 24),
         atm::VcId{static_cast<std::uint16_t>((label >> 16) & 0xFF),
                   static_cast<std::uint16_t>(label & 0xFFFF)},
         e.out_port, e.out_vc);
    });
  }

  /// Attaches the link leaving `out_port`.
  void attach_output(std::size_t out_port, Link& link);

  /// Registers the link feeding `in_port` as this port's loss-of-signal
  /// source: while it is down, the switch periodically inserts AIS on
  /// the translated outgoing VC of every route entering on that port
  /// (I.610 hop-by-hop alarm insertion at the switch just downstream of
  /// the failure). Does not attach the link's sink — wire delivery
  /// stays with the usual set_sink -> receive() lambda.
  void set_input_link(std::size_t in_port, Link& link);

  /// Delivers a wire cell arriving on `in_port` (connect a Link's sink
  /// to this via a lambda).
  void receive(std::size_t in_port, const WireCell& wire);

  std::uint64_t cells_received() const { return received_.value(); }
  std::uint64_t cells_forwarded() const { return forwarded_.value(); }
  /// Per-port splits of the two books above, for per-hop conservation
  /// audits on multi-switch paths.
  std::uint64_t cells_received_on(std::size_t in_port) const {
    return received_on_.at(in_port);
  }
  std::uint64_t cells_forwarded_on(std::size_t out_port) const {
    return forwarded_on_.at(out_port);
  }
  /// AIS cells this switch originated for routes whose input link is
  /// down (they enter the books at the queue stage, not at receive).
  std::uint64_t cells_ais_inserted() const { return ais_inserted_.value(); }
  std::uint64_t cells_dropped_overflow() const { return dropped_.value(); }
  std::uint64_t cells_dropped_clp() const { return clp_dropped_.value(); }
  /// Cells dropped at the per-VC residency cap (vc_queue_cells).
  std::uint64_t cells_dropped_vc_limit() const {
    return vc_limit_drop_.value();
  }
  std::uint64_t cells_unroutable() const { return unroutable_.value(); }
  std::uint64_t cells_hec_discarded() const { return hec_discard_.value(); }
  std::uint64_t cells_policed_dropped() const { return policed_drop_.value(); }
  std::uint64_t cells_policed_tagged() const { return policed_tag_.value(); }
  std::uint64_t cells_epd_dropped() const { return epd_drop_.value(); }
  std::uint64_t pdus_epd_discarded() const { return epd_pdus_.value(); }
  std::uint64_t cells_ppd_dropped() const { return ppd_drop_.value(); }
  /// Cells that cleared HEC, routing and UPC — everything offered to
  /// the output queue stage. The queue-stage conservation identity
  /// (core::InvariantAuditor::audit_switch) balances this against the
  /// forwarded + per-cause discard counters + resident cells.
  std::uint64_t cells_queue_offered() const { return queue_offered_.value(); }
  std::uint64_t cells_wred_dropped() const { return wred_drop_.value(); }
  std::uint64_t cells_wred_dropped_clp() const {
    return wred_drop_clp_.value();
  }
  std::uint64_t cells_efci_marked() const { return efci_marked_.value(); }
  /// trTCM books. Offered counts every cell a meter saw; the colors
  /// partition it exactly (offered == green + yellow + red).
  std::uint64_t cells_metered() const { return metered_.value(); }
  std::uint64_t cells_meter_green() const { return meter_green_.value(); }
  std::uint64_t cells_meter_yellow() const { return meter_yellow_.value(); }
  std::uint64_t cells_meter_red() const { return meter_red_.value(); }
  /// Resident cells purged by remove_route (a sub-book of
  /// cells_dropped_overflow, where they are also counted).
  std::uint64_t cells_purged_on_close() const { return purged_close_.value(); }
  /// Backward RM cells whose explicit-rate field this switch tightened.
  std::uint64_t rm_cells_er_stamped() const { return er_stamped_.value(); }
  /// Cells currently resident across all output pools.
  std::size_t cells_queued() const;
  /// Current occupancy of one output port's shared pool.
  std::size_t queue_occupancy(std::size_t out_port) const {
    return outputs_.at(out_port).occupancy;
  }

  const SwitchConfig& config() const { return config_; }

  /// Time-average and max depth of an output pool.
  double mean_queue_depth(std::size_t out_port) const;
  double max_queue_depth(std::size_t out_port) const;

  /// Surfaces the switch's books (plus per-port queue-depth gauges)
  /// under `scope`.
  void register_metrics(const sim::MetricScope& scope) const {
    scope.expose("cells_received", received_);
    scope.expose("cells_forwarded", forwarded_);
    scope.expose("cells_dropped_overflow", dropped_);
    scope.expose("cells_dropped_clp", clp_dropped_);
    scope.expose("cells_dropped_vc_limit", vc_limit_drop_);
    scope.expose("cells_unroutable", unroutable_);
    scope.expose("cells_hec_discarded", hec_discard_);
    scope.expose("cells_policed_dropped", policed_drop_);
    scope.expose("cells_policed_tagged", policed_tag_);
    scope.expose("cells_epd_dropped", epd_drop_);
    scope.expose("pdus_epd_discarded", epd_pdus_);
    scope.expose("cells_ppd_dropped", ppd_drop_);
    scope.expose("cells_queue_offered", queue_offered_);
    scope.expose("cells_wred_dropped", wred_drop_);
    scope.expose("cells_wred_dropped_clp", wred_drop_clp_);
    scope.expose("cells_efci_marked", efci_marked_);
    scope.expose("cells_metered", metered_);
    scope.expose("cells_meter_green", meter_green_);
    scope.expose("cells_meter_yellow", meter_yellow_);
    scope.expose("cells_meter_red", meter_red_);
    scope.expose("cells_purged_on_close", purged_close_);
    scope.expose("rm_cells_er_stamped", er_stamped_);
    scope.expose("cells_ais_inserted", ais_inserted_);
    for (std::size_t p = 0; p < config_.ports; ++p) {
      const sim::MetricScope port = scope.sub("port." + std::to_string(p));
      port.gauge("queue_depth_mean",
                 [this, p] { return mean_queue_depth(p); });
      port.gauge("queue_depth_max",
                 [this, p] { return max_queue_depth(p); });
      port.gauge("cells_received", [this, p] {
        return static_cast<double>(received_on_[p]);
      });
      port.gauge("cells_forwarded", [this, p] {
        return static_cast<double>(forwarded_on_[p]);
      });
    }
  }

  /// Attaches a tracer: EFCI marks and WRED drops emit typed events
  /// tagged `name`.
  void set_tracer(sim::Tracer* tracer, const std::string& name) {
    tracer_ = tracer;
    trace_source_ = tracer ? tracer->intern(name) : 0;
  }

 private:
  /// Frame-aware discard state per (in_port, vc), AAL5 framing.
  struct FrameState {
    bool mid_pdu = false;      // a PDU is in progress (first cell seen)
    enum class Discard : std::uint8_t {
      kNone,
      kWholePdu,   // EPD: drop everything through the final cell
      kTail,       // PPD: drop the rest but forward the final cell
    } discard = Discard::kNone;
  };
  /// UPC discipline installed on a label. The three mutually exclusive
  /// policing states (single GCRA dropping, single GCRA tagging, trTCM
  /// meter) collapse into one byte so the hot per-VC record stays at
  /// 40 bytes — bench P2's bytes/VC budget is paid per cell, per probe.
  /// kTrTcm's bucket state lives out-of-line in meters_ (VBR VCs are
  /// sparse; the common probe must not carry their buckets).
  enum class Upc : std::uint8_t { kNone, kGcraDrop, kGcraTag, kTrTcm };
  /// Everything the data plane needs for one (in_port, vc), in one
  /// pooled record: a cell pays exactly one table probe, not three.
  struct VcEntry {
    std::uint32_t out_port = 0;
    atm::VcId out_vc{};
    atm::Gcra police{0, 0};
    Upc upc = Upc::kNone;
    bool has_route = false;
    /// The VC adapts to explicit-rate feedback (ERICA measures it and
    /// stamps its backward RM cells).
    bool abr = false;
    FrameState frame;
    /// DWRR service weight on the output port (cells per round).
    std::uint16_t weight = 1;
  };
  /// Cells awaiting service on an output port: one (translated) VC's,
  /// or under kFifo all of the port's.
  struct VcQueue {
    sim::Ring<WireCell> cells;
    std::uint32_t grant = 1;    // cells per turn; refreshed on enqueue
    std::uint32_t deficit = 0;  // cells left in the current turn
  };
  /// ERICA measurement state for one output port. Windows advance
  /// lazily on arrivals (no standing timer); the finalized snapshot is
  /// what backward RM stamping reads.
  struct AbrMeasure {
    sim::Time window_start = 0;
    std::uint64_t total_cells = 0;  // everything offered to this port
    std::uint64_t abr_cells = 0;    // the ABR-classified share
    sim::FlatMap<std::uint32_t, std::uint64_t> per_vc;  // by out-vc label
    // Finalized snapshot of the last completed window:
    bool valid = false;
    double abr_capacity = 0.0;  // cells/s left for ABR after other load
    double fair_share = 0.0;    // abr_capacity / active ABR VCs
    double load_factor = 0.0;   // ABR input rate / abr_capacity
    sim::FlatMap<std::uint32_t, double> vc_rate;  // cells/s by label
  };
  struct OutputPort {
    /// kFifo: the port's one queue, held directly, so the default
    /// scheduler pays no table probe per cell.
    VcQueue shared;
    /// kRoundRobin/kDwrr: per-VC queues keyed on the *outgoing* VC
    /// label. A record is erased only by remove_route, which first
    /// retires its ring ticket and purges its resident cells, so no
    /// dangling pointer survives the erase.
    sim::FlatMap<std::uint32_t, VcQueue> queues;
    /// The active ring: one ticket per non-empty queue, all drawing on
    /// the shared `occupancy` pool bounded by queue_cells. Tickets are
    /// pointers to `shared` or to arena records, stable across inserts,
    /// so the scheduler pays no table probe per served cell.
    sim::Ring<VcQueue*> order;
    std::size_t occupancy = 0;
    Link* link = nullptr;
    bool serving = false;
    sim::TimeWeightedStat depth;
    AbrMeasure abr;
  };
  /// Loss-of-signal state for one input port (set_input_link).
  struct InputPort {
    Link* link = nullptr;
    bool down = false;
    std::uint64_t epoch = 0;  // invalidates stale AIS timers on recovery
  };

  /// Packs (in_port, vpi, vci) into the 32-bit table label:
  /// port(8) | vpi(8) | vci(16). The forwarding plane parses headers
  /// as UNI, so the VPI always fits 8 bits here; out-of-range values
  /// (a would-be 12-bit NNI VPI, a port beyond 255) throw rather than
  /// aliasing another connection's state.
  static std::uint32_t route_label(std::size_t port, atm::VcId vc);

  /// One WRED trial against the band for `tagged` at `occupancy`.
  bool wred_decides_drop(std::size_t occupancy, bool tagged);
  void serve(std::size_t out_port);
  /// ERICA arrival accounting for one offered cell (lazily closes the
  /// measurement window when it has run its interval).
  void abr_account(const VcEntry& entry, OutputPort& out);
  /// The explicit rate this switch grants the ABR VC whose *forward*
  /// data leaves via out_port under out-vc `label` (cells/s).
  double compute_er(std::size_t out_port, std::uint32_t label) const;
  /// Tightens the ER field of a backward RM cell in place.
  void stamp_backward_rm(std::size_t in_port, const atm::CellHeader& h,
                         WireCell& cell);
  /// One AIS insertion round for a down input port; re-arms itself on
  /// kAisPeriod (switch.cpp) while the port's epoch matches.
  void insert_ais(std::size_t in_port, std::uint64_t epoch);
  /// Enqueues a switch-originated control cell on entry's output queue
  /// (queue stage directly: offered + reserved-headroom admission).
  void inject_control(const VcEntry& entry, WireCell wire);
  /// Queues an admitted cell for entry's output port — on the port's
  /// shared queue (kFifo) or its VC's queue, with the grant the
  /// scheduler gives that queue — and starts service if the port idles.
  void enqueue(const VcEntry& entry, WireCell cell);

  sim::Simulator& sim_;
  SwitchConfig config_;
  sim::Time slot_;  // output cell slot, clock_ppm applied once
  double port_cells_per_s_ = 0.0;  // nominal output rate, for ERICA
  sim::FlatMap<std::uint32_t, VcEntry> vcs_;
  sim::FlatMap<std::uint32_t, atm::TrTcm> meters_;
  std::size_t route_count_ = 0;
  std::vector<OutputPort> outputs_;
  std::vector<InputPort> inputs_;
  std::vector<atm::HecReceiver> hec_;  // one per input port
  std::vector<std::uint64_t> received_on_;   // per-input-port split
  std::vector<std::uint64_t> forwarded_on_;  // per-output-port split
  sim::Rng wred_rng_;
  sim::Tracer* tracer_ = nullptr;
  std::uint16_t trace_source_ = 0;
  sim::Counter received_;
  sim::Counter forwarded_;
  sim::Counter dropped_;
  sim::Counter clp_dropped_;
  sim::Counter vc_limit_drop_;
  sim::Counter unroutable_;
  sim::Counter hec_discard_;
  sim::Counter policed_drop_;
  sim::Counter policed_tag_;
  sim::Counter epd_drop_;
  sim::Counter epd_pdus_;
  sim::Counter ppd_drop_;
  sim::Counter queue_offered_;
  sim::Counter wred_drop_;
  sim::Counter wred_drop_clp_;
  sim::Counter efci_marked_;
  sim::Counter metered_;
  sim::Counter meter_green_;
  sim::Counter meter_yellow_;
  sim::Counter meter_red_;
  sim::Counter purged_close_;
  sim::Counter er_stamped_;
  sim::Counter ais_inserted_;
};

}  // namespace hni::net
