// Transmit side of the host-network interface.
//
// The pipeline the paper lays out:
//
//   host driver --(descriptor ring)--> segmentation engine
//        |                                   |
//        +--- host memory ===(DMA, bus)===> board staging
//                                            |
//                              cell build (header template, AAL fields,
//                              CRC in hardware) --> TX cell FIFO
//                                            |
//                                     SONET framer (line rate)
//
// The host writes the SDU once; the board stages it across the bus in
// one whole-PDU DMA, the engine walks it producing cells, and the
// framer drains the FIFO at line rate. When the FIFO fills, the engine
// stalls — transmit applies backpressure, it never drops.
//
// Two properties beyond the minimal pipeline:
//
//  * Staging uses a fixed pool of board staging slots (staged_pdus of
//    them, plus the one whose completion work is running). A slot
//    keeps its byte and cell buffers from PDU to PDU, and a VC's
//    staged queue is a chain of links through its slots, so a warm
//    path stages and emits a PDU without the allocator.
//  * Staging is double-buffered: the next PDU's descriptor fetch and
//    DMA overlap the current PDU's cell emission, so the wire does not
//    idle across bus transfers.
//  * Emission is scheduled per VC with cell-level round-robin: PDUs on
//    different VCs interleave cell by cell (legal in ATM — cells of one
//    VC stay in order), so a small urgent PDU is not head-of-line
//    blocked behind a 64 kB transfer. A per-VC GCRA shaper can pace a
//    VC to its traffic contract (see atm/gcra.hpp); unshaped VCs share
//    the residual line rate round-robin.
//
// Costs charged to the engine come from proc::FirmwareProfile; the data
// path itself is functional (real cells with real CRCs come out).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "aal/sar.hpp"
#include "atm/fifo.hpp"
#include "atm/gcra.hpp"
#include "atm/phy.hpp"
#include "bus/dma.hpp"
#include "nic/watchdog.hpp"
#include "proc/engine.hpp"
#include "proc/firmware.hpp"
#include "sim/flat_table.hpp"
#include "sim/pool.hpp"
#include "sim/ring.hpp"

namespace hni::nic {

/// One transmit request, as the driver posts it.
struct TxDescriptor {
  bus::SgList sg;                 // SDU bytes in host memory
  std::size_t len = 0;            // SDU length in octets
  atm::VcId vc;
  aal::AalType aal = aal::AalType::kAal5;
  bool clp = false;
  std::uint64_t cookie = 0;       // host correlation id
};

struct TxPathConfig {
  proc::EngineConfig engine{25e6, 1.0};
  std::size_t ring_entries = 32;
  std::size_t fifo_cells = 64;
  std::size_t staged_pdus = 4;     // board staging slots (total)
  std::size_t staging_concurrency = 2;  // staging DMAs in flight (the
                                        // bus arbitrates burst-wise)
  /// Staging DMA retry/backoff policy (max_retries = 0 disables
  /// recovery: one failed attempt aborts the PDU).
  bus::DmaConfig dma{};
  /// Oscillator offset in ppm; nullopt lets core::Testbed assign a
  /// realistic random value per station (+-50 ppm).
  std::optional<double> clock_ppm{};
  /// Watchdog sampling interval: a segmentation engine showing no
  /// progress across two samples while unblocked work waits is reset
  /// (unwedged and rescheduled). 0 disables the watchdog.
  sim::Time watchdog_interval = sim::milliseconds(10);
};

class TxPath {
 public:
  /// Fired when a descriptor's cells have all been handed to the framer
  /// FIFO and its host buffers may be reclaimed.
  using Completion = std::function<void(const TxDescriptor&)>;

  TxPath(sim::Simulator& sim, bus::Bus& bus, bus::HostMemory& memory,
         const proc::FirmwareProfile& firmware, TxPathConfig config,
         atm::LineRate line);

  /// Posts a descriptor; false exactly when ring_full().
  bool post(TxDescriptor descriptor);

  /// Queues a raw control cell (OAM, RM) for emission. Control cells
  /// take priority over user data and are never shaped.
  void inject_cell(atm::Cell cell);

  /// Paces `vc` to a peak cell rate (cells/second) with the given CDVT
  /// — the VC's traffic contract. Applies to cells emitted from now on.
  void set_shaper(atm::VcId vc, double pcr_cells_per_second,
                  sim::Time cdvt = 0);
  void clear_shaper(atm::VcId vc);
  /// Whether `vc` has a traffic contract (a set_shaper PCR) installed.
  bool has_contract(atm::VcId vc) const {
    const VcState* vs = vcs_.find(atm::vc_label(vc)).value;
    return vs != nullptr && vs->contract_pcr > 0.0;
  }

  /// Congestion throttle: scales `vc`'s emission rate to `factor` of
  /// its base rate (the contract PCR if one is set, the line's cell
  /// rate otherwise). 1.0 removes the throttle; values are clamped to
  /// [1/1024, 1]. Orthogonal to set_shaper — the contract survives and
  /// is re-applied when the factor returns to 1.
  void set_rate_factor(atm::VcId vc, double factor);
  /// The current throttle factor (1.0 when none is installed).
  double rate_factor(atm::VcId vc) const {
    const VcState* vs = vcs_.find(atm::vc_label(vc)).value;
    return vs != nullptr ? vs->rate_factor : 1.0;
  }
  /// Whether a GCRA shaper is currently installed on `vc` — true while
  /// a contract or a sub-unity throttle is in force. A best-effort VC
  /// recovered to full rate must report false (the shaper is shed, not
  /// left pacing at ~line rate).
  bool vc_shaped(atm::VcId vc) const {
    const VcState* vs = vcs_.find(atm::vc_label(vc)).value;
    return vs != nullptr && vs->shaper.has_value();
  }

  // --- fault management -------------------------------------------------
  /// Pauses `vc` (remote defect, e.g. an RDI alarm): already-staged
  /// PDUs hold their slots but stop emitting, and *new* posts for the
  /// VC are dropped with accounting rather than queued unboundedly into
  /// a dead connection (the completion callback still fires so the
  /// driver reclaims its buffers).
  void pause_vc(atm::VcId vc);
  void resume_vc(atm::VcId vc);
  bool vc_paused(atm::VcId vc) const;

  /// Wedges the segmentation/emission engine (fault hook); cleared by
  /// unwedge_engine() or a watchdog reset.
  void wedge_engine() { wedged_ = true; }
  void unwedge_engine();
  /// The staging DMA engine (fault hooks: fail_next / stall).
  bus::DmaEngine& dma() { return dma_; }
  const bus::DmaEngine& dma() const { return dma_; }
  std::uint64_t watchdog_resets() const {
    return watchdog_ ? watchdog_->resets() : 0;
  }

  void set_completion(Completion cb) { completion_ = std::move(cb); }

  /// The framer feeding the wire; callers attach its sink and start it.
  atm::TxFramer& framer() { return framer_; }

  /// Starts the framer slot clock.
  void start() { framer_.start(); }

  bool ring_full() const { return ring_.size() >= config_.ring_entries; }
  std::size_t ring_occupancy() const { return ring_.size(); }

  std::uint64_t pdus_sent() const { return pdus_.value(); }
  std::uint64_t cells_built() const { return cells_.value(); }
  /// PDUs abandoned because their staging DMA gave up.
  std::uint64_t pdus_aborted() const { return aborted_.value(); }
  /// Posts dropped (with completion) because the VC was paused.
  std::uint64_t pdus_dropped_paused() const { return paused_drop_.value(); }
  const proc::Engine& engine() const { return engine_; }
  const atm::CellFifo<atm::Cell>& fifo() const { return fifo_; }
  /// Board staging slots created so far; never more than staged_pdus
  /// + 1 (the extra one is held while a PDU's completion work runs).
  std::size_t staging_slots() const { return slots_.size(); }

  /// Per-phase cycle budget of the segmentation engine (header build,
  /// CRC, DMA wait, FIFO stall, …) — bench O1's TX table.
  const sim::CycleProfiler& profiler() const { return profiler_; }

  /// Surfaces the path's books under `scope`, plus a per-VC row family
  /// covering every VC the path has seen.
  void register_metrics(const sim::MetricScope& scope);

 private:
  struct VcState;

  /// A board staging slot: the PDU's bytes as DMA'd into board memory
  /// and the cells cut from them. Both buffers keep their capacity when
  /// the slot is reused.
  struct StagedPdu {
    TxDescriptor descriptor;
    VcState* vs = nullptr;
    aal::Bytes bytes;  // the SDU in board memory (first descriptor.len)
    std::vector<atm::Cell> cells;
    std::size_t next = 0;       // next cell to emit
    StagedPdu* link = nullptr;  // next slot in the VC's staged queue
  };

  struct VcState {
    // Staged PDUs, oldest first, linked through StagedPdu::link.
    StagedPdu* head = nullptr;
    StagedPdu* tail = nullptr;
    std::uint32_t queued = 0;
    bool staging = false;  // a staging DMA is in flight (keeps order)
    std::optional<atm::Gcra> shaper;
    double contract_pcr = 0.0;     // traffic contract (0 = none)
    sim::Time contract_cdvt = 0;
    double rate_factor = 1.0;      // congestion throttle multiplier
    bool paused = false;  // remote defect: hold emission, shed posts
    std::uint32_t rr_index = 0;    // position in the rr_ rotation
    std::uint32_t ready_slot = 0;  // position in ready_ (queue non-empty)
    // Per-VC instruments, rendered by the registry's per-VC family.
    sim::Counter m_cells;
    sim::Counter m_pdus;
  };

  /// Rebuilds a VC's GCRA from its contract and throttle factor (an
  /// unthrottled, uncontracted VC runs unshaped).
  void apply_shaper(VcState& vs);

  /// Unblocked work exists (what the watchdog calls "pending"): control
  /// cells, or staged cells on a VC that is neither paused nor
  /// shaper-blocked right now.
  bool has_runnable_work() const;

  void maybe_stage_next();
  void stage_pdu(StagedPdu* slot);
  /// Trailer work, then segmentation into the slot's cells.
  void finish_staging(StagedPdu* slot);
  /// Hands a slot's descriptor back to the driver and frees the slot.
  void complete(StagedPdu* slot);
  /// Emission scheduler: picks the next eligible VC round-robin and
  /// emits one cell; re-arms on FIFO space / shaper eligibility.
  void schedule_emission();
  void emit_one(atm::VcId vc);
  VcState& state_for(atm::VcId vc);
  /// Lookup for a VC known to exist (the rr_ rotation only holds VCs
  /// state_for has created; entries are never erased).
  VcState& vc_state(atm::VcId vc) {
    return *vcs_.find(atm::vc_label(vc)).value;
  }
  /// Queue transitions that keep ready_ in step: a VC joins the set
  /// when its queue goes non-empty and leaves it when the queue empties.
  void push_staged(VcState& vs, StagedPdu* slot);
  /// Unlinks and returns the VC's oldest staged slot.
  StagedPdu* pop_staged(VcState& vs);

  sim::Simulator& sim_;
  bus::DmaEngine dma_;
  proc::FirmwareProfile firmware_;
  TxPathConfig config_;
  sim::CycleProfiler profiler_;
  proc::Engine engine_;
  atm::CellFifo<atm::Cell> fifo_;
  atm::TxFramer framer_;
  // Posted descriptors, oldest first (reserved to ring_entries).
  std::vector<TxDescriptor> ring_;
  sim::Ring<atm::Cell> control_;  // OAM/RM cells awaiting emission
  sim::Pool<StagedPdu> slots_;

  // Per-VC emission state, keyed on the packed 32-bit VC label.
  // Arena-pooled: VcState addresses are stable across inserts, so the
  // emission path can hold a reference across engine callbacks.
  sim::FlatMap<std::uint32_t, VcState> vcs_;
  std::vector<atm::VcId> rr_;   // all VCs ever seen, rotation order
  std::size_t rr_pos_ = 0;
  // The VCs with staged PDUs, unordered: the scheduler picks the one
  // nearest rr_pos_ in rotation order, so it never walks idle VCs.
  std::vector<VcState*> ready_;
  std::size_t staged_count_ = 0;
  std::size_t staging_inflight_ = 0;
  bool emit_busy_ = false;
  bool fifo_wait_armed_ = false;
  sim::Time fifo_stall_since_ = 0;
  bool wedged_ = false;
  sim::EventHandle shaper_wakeup_;
  sim::Time shaper_wakeup_at_ = sim::kTimeNever;
  std::unique_ptr<Watchdog> watchdog_;

  // Cycle-budget phases (see profiler()).
  sim::CycleProfiler::PhaseId ph_fetch_;
  sim::CycleProfiler::PhaseId ph_dma_wait_;
  sim::CycleProfiler::PhaseId ph_trailer_;
  sim::CycleProfiler::PhaseId ph_header_;
  sim::CycleProfiler::PhaseId ph_crc_;
  sim::CycleProfiler::PhaseId ph_stall_;
  sim::CycleProfiler::PhaseId ph_complete_;

  Completion completion_;
  std::uint64_t next_seq_ = 0;
  sim::Counter pdus_;
  sim::Counter cells_;
  sim::Counter aborted_;
  sim::Counter paused_drop_;
};

}  // namespace hni::nic
