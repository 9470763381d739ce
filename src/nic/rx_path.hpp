// Receive side of the host-network interface.
//
// The pipeline:
//
//   wire --> HEC check/correct --> RX cell FIFO --> reassembly engine
//                                       |                 |
//                                  (overflow =            | VC lookup (CAM
//                                   cell loss)            |  or hash), buffer
//                                                         |  chain append,
//                                                         v  trailer check
//                                  board containers   completed PDU
//                                                         |
//                                host memory <===(DMA)====+
//                                       |
//                                  interrupt (per PDU, coalesced)
//
// The RX FIFO absorbs line-rate bursts while the engine works; its
// overflow is the architecture's loss mechanism under overload (bench
// F3). The engine is charged per cell from the firmware tables; hash
// probe counts come from the real VC table so lookup cost scales with
// active VCs (bench F5). Completed PDUs cross the bus once and the host
// is interrupted per PDU or less.
//
// Reassembly buffers come from one per-path pool: a PDU takes a buffer
// on its first cell, and the buffer goes back when the PDU's landing
// DMA lands or fails, or when the PDU errors, times out or is aborted
// by an engine reset. Buffers grow to the largest PDU seen, never to
// the AAL maximum, and a warm path reassembles and lands PDUs without
// the allocator. A PDU lands in host pages the driver posted (see
// rx_pages_posted()).
//
// Each cell the engine pulls is one engine step, charged when the VC is
// looked up. The step's completion looks the VC up again, so a cell
// whose VC closed meanwhile is counted in cells_no_vc and reaches
// neither reassembly nor the owning Nic's OAM, RM and EFCI handlers.

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "aal/sar.hpp"
#include "atm/fifo.hpp"
#include "atm/hec.hpp"
#include "atm/oam.hpp"
#include "bus/dma.hpp"
#include "net/link.hpp"
#include "nic/buffer_mgr.hpp"
#include "nic/interrupt.hpp"
#include "nic/watchdog.hpp"
#include "proc/engine.hpp"
#include "proc/firmware.hpp"
#include "sim/flat_table.hpp"
#include "sim/pool.hpp"

namespace hni::nic {

class Nic;

/// A PDU landed in host memory.
struct RxDelivery {
  atm::VcId vc;
  bus::SgList sg;              // host buffers holding the SDU
  std::size_t len = 0;         // SDU octets
  sim::Time first_cell_time = 0;   // sender-side stamp of first cell
  sim::Time delivered_time = 0;    // when the DMA completed
  std::size_t interrupt_batch = 0; // deliveries covered by the interrupt
  bool first_of_batch = false;     // true for the first delivery of an
                                   // interrupt (hosts charge interrupt
                                   // entry once per batch)
};

struct RxPathConfig {
  proc::EngineConfig engine{25e6, 1.0};
  std::size_t fifo_cells = 64;
  BoardMemoryConfig board{};
  sim::Time interrupt_coalesce = 0;
  /// Landing DMA retry/backoff policy (max_retries = 0 disables
  /// recovery: one failed attempt loses the PDU).
  bus::DmaConfig dma{};
  /// A partially assembled PDU idle this long is abandoned and its
  /// board containers reclaimed (a lost final cell must not pin
  /// resources). 0 disables the sweep.
  sim::Time reassembly_timeout = sim::milliseconds(50);
  /// Watchdog sampling interval: a reassembly engine that shows no
  /// progress across two samples while cells wait is abort-and-reclaim
  /// reset. 0 disables the watchdog (recovery off).
  sim::Time watchdog_interval = sim::milliseconds(10);
};

class RxPath {
 public:
  using DeliverFn = std::function<void(RxDelivery)>;

  /// `owner` is the Nic whose OAM, RM, EFCI and activity handlers the
  /// engine calls for cells on open VCs; null runs the path alone.
  RxPath(sim::Simulator& sim, bus::Bus& bus, bus::HostMemory& memory,
         const proc::FirmwareProfile& firmware, RxPathConfig config,
         Nic* owner = nullptr);

  /// Opens a VC for reassembly with the given AAL.
  void open_vc(atm::VcId vc, aal::AalType aal);
  void close_vc(atm::VcId vc);
  /// Whether `vc` is currently open (audit/reconciliation path).
  bool vc_open(atm::VcId vc) const {
    return vcs_.contains(atm::vc_label(vc));
  }
  std::size_t vcs_open() const { return vcs_.size(); }
  /// Every open VC in label order (cold path, allocates): the NIC
  /// inserts one AIS cell per entry under loss of signal.
  std::vector<atm::VcId> open_vc_ids() const {
    std::vector<atm::VcId> out;
    out.reserve(vcs_.size());
    vcs_.for_each([&out](std::uint32_t label, const VcState&) {
      out.push_back(atm::vc_from_label(label));
    });
    std::sort(out.begin(), out.end());
    return out;
  }

  /// PHY entry point: connect a net::Link's sink here.
  void receive_wire(const net::WireCell& wire);

  /// Host-facing delivery hook (fires after DMA + interrupt).
  void set_deliver(DeliverFn deliver) { deliver_ = std::move(deliver); }

  // --- posted receive budget ------------------------------------------
  /// Host pages the driver has posted and the path has not drawn. A
  /// landing draws its pages only when both this budget and host
  /// memory hold them; otherwise the PDU is dropped
  /// (pdus_dropped_host_buffers). A path with no driver starts with
  /// every free page of host memory posted.
  std::size_t rx_pages_posted() const { return posted_pages_; }
  /// The driver posts its receive budget, replacing the current one.
  void post_pages(std::size_t pages) { posted_pages_ = pages; }
  /// Frees a landing's host pages and posts them again: the driver
  /// after it consumed a delivery, the path itself when a landing DMA
  /// gives up.
  void repost(const bus::SgList& sg) {
    memory_.free(sg);
    posted_pages_ += sg.size();
  }

  // --- fault hooks & recovery -------------------------------------------
  /// Wedges the reassembly engine: it stops draining the FIFO (which
  /// then overflows) until unwedge_engine() or a watchdog reset.
  void wedge_engine() { wedged_ = true; }
  /// Clears a wedge without the destructive reset (fault ended by
  /// itself). Resumes service.
  void unwedge_engine();
  /// Abort-and-reclaim reset: flushes the cell FIFO, releases every
  /// mid-PDU board chain back to the pool (accounted as pdus_aborted)
  /// and resets the reassembly streams. The watchdog's action.
  void reset_engine();
  /// The landing DMA engine (fault hooks: fail_next / stall).
  bus::DmaEngine& dma() { return dma_; }
  const bus::DmaEngine& dma() const { return dma_; }
  std::uint64_t watchdog_resets() const {
    return watchdog_ ? watchdog_->resets() : 0;
  }

  InterruptController& interrupts() { return interrupts_; }
  const InterruptController& interrupts() const { return interrupts_; }
  const proc::Engine& engine() const { return engine_; }
  const atm::CellFifo<atm::Cell>& fifo() const { return fifo_; }
  const BoardMemory& board() const { return board_; }
  /// The reassembly buffer pool.
  const aal::BufferPool& buffers() const { return buffers_; }
  /// Mutable board pool (fault hooks: set_capacity_limit).
  BoardMemory& board_memory() { return board_; }

  // --- statistics -----------------------------------------------------
  std::uint64_t cells_received() const { return cells_in_.value(); }
  std::uint64_t cells_hec_discarded() const { return hec_discard_.value(); }
  std::uint64_t cells_hec_corrected() const { return hec_corrected_.value(); }
  std::uint64_t cells_fifo_dropped() const { return fifo_.drops(); }
  std::uint64_t cells_no_vc() const { return no_vc_.value(); }
  std::uint64_t pdus_delivered() const { return pdus_ok_.value(); }
  std::uint64_t pdus_errored() const { return pdus_err_.value(); }
  std::uint64_t pdus_dropped_board() const { return board_drop_.value(); }
  std::uint64_t pdus_dropped_host_buffers() const {
    return host_buffer_drop_.value();
  }
  std::uint64_t oam_cells_received() const { return oam_cells_.value(); }
  std::uint64_t oam_cells_bad() const { return oam_bad_.value(); }
  /// User-data cells that arrived carrying the EFCI congestion mark.
  std::uint64_t cells_efci_marked() const { return efci_marked_.value(); }
  /// Resource-management cells handed to the RM handler.
  std::uint64_t rm_cells_received() const { return rm_cells_.value(); }
  /// Partial PDUs abandoned by the reassembly-timeout sweep.
  std::uint64_t pdus_timed_out() const { return timeouts_.value(); }
  /// Partial PDUs aborted by an engine reset (watchdog recovery).
  std::uint64_t pdus_aborted() const { return aborted_.value(); }
  /// Completed PDUs lost because the landing DMA gave up after retries.
  std::uint64_t pdus_dropped_dma() const { return dma_drop_.value(); }
  /// Cells the engine pulled from the FIFO for processing.
  std::uint64_t cells_serviced() const { return serviced_.value(); }
  /// Cells discarded from the FIFO by an engine reset.
  std::uint64_t cells_flushed() const { return flushed_.value(); }
  std::uint64_t error_count(aal::ReassemblyError e) const {
    return error_counts_[static_cast<std::size_t>(e)].value();
  }
  /// Reassembly latency: first cell emission to host-memory landing.
  const sim::RunningStat& pdu_latency_us() const { return latency_us_; }

  /// Per-phase cycle budget of the reassembly engine (arrival + lookup,
  /// append, CRC, OAM, delivery, DMA wait) — bench O1's RX table.
  const sim::CycleProfiler& profiler() const { return profiler_; }

  /// Surfaces the path's books under `scope`, plus a per-VC row family
  /// covering the VCs open at each snapshot.
  void register_metrics(const sim::MetricScope& scope);

  /// Attaches a tracer: a priority-lane (OAM/control) cell refused by a
  /// full RX FIFO emits kFifoPriorityDrop tagged `name`.
  void set_tracer(sim::Tracer* tracer, const std::string& name) {
    fifo_.set_tracer(tracer, tracer ? tracer->intern(name) : 0);
  }

 private:
  struct VcState {
    aal::AalType aal = aal::AalType::kAal5;
    std::unique_ptr<aal::FrameReassembler> reasm;
    sim::Time last_activity = 0;
    // Per-VC instruments, rendered by the registry's per-VC family;
    // they go with the VC when it closes.
    sim::Counter m_cells;
    sim::Counter m_pdus;
    sim::Counter m_efci;
  };

  /// A completed PDU crossing the bus into host buffers: its
  /// reassembly buffer is the DMA's source until the write lands.
  struct Landing {
    atm::VcId vc;
    aal::Bytes sdu;
    bus::SgList sg;
    sim::Time first_cell_time = 0;
    sim::Time issued = 0;
  };

  void service();
  /// Ends the engine's step for one cell and pulls the next.
  void step_done() {
    engine_busy_ = false;
    service();
  }
  void sweep_stale_pdus();
  /// A cell's engine step completed: hand it to the owner or reassembly.
  void finish_cell(atm::Cell cell);
  void complete_pdu(atm::VcId vc, aal::FrameDelivery d);
  void landed(Landing* landing);
  void landing_failed(Landing* landing);
  static bool is_first_cell(const atm::Cell& cell, const VcState& state);
  static std::uint64_t chain_key(atm::VcId vc) {
    return (static_cast<std::uint64_t>(vc.vpi) << 16) | vc.vci;
  }
  /// Whether this cell ends a PDU (peeked for cost computation).
  static bool is_last_cell(const atm::Cell& cell, aal::AalType aal);

  sim::Simulator& sim_;
  bus::HostMemory& memory_;
  bus::DmaEngine dma_;
  proc::FirmwareProfile firmware_;
  RxPathConfig config_;
  sim::CycleProfiler profiler_;
  proc::Engine engine_;
  atm::CellFifo<atm::Cell> fifo_;
  BoardMemory board_;
  atm::HecReceiver hec_;
  // Reassembly state by atm::vc_label. The engine pays each lookup's
  // probe displacement (Found::extra_probes) on top of the CAM-assist
  // baseline, so lookup cost is measured, not configured (bench F5).
  sim::FlatMap<std::uint32_t, VcState> vcs_;
  InterruptController interrupts_;
  DeliverFn deliver_;
  Nic* owner_;
  std::size_t posted_pages_;
  std::unique_ptr<Watchdog> watchdog_;
  bool engine_busy_ = false;
  bool wedged_ = false;

  // Cycle-budget phases (see profiler()).
  sim::CycleProfiler::PhaseId ph_arrival_;
  sim::CycleProfiler::PhaseId ph_append_;
  sim::CycleProfiler::PhaseId ph_crc_;
  sim::CycleProfiler::PhaseId ph_oam_;
  sim::CycleProfiler::PhaseId ph_deliver_;
  sim::CycleProfiler::PhaseId ph_dma_wait_;

  sim::Counter cells_in_;
  sim::Counter hec_discard_;
  sim::Counter hec_corrected_;
  sim::Counter no_vc_;
  sim::Counter pdus_ok_;
  sim::Counter pdus_err_;
  sim::Counter board_drop_;
  sim::Counter host_buffer_drop_;
  sim::Counter oam_cells_;
  sim::Counter oam_bad_;
  sim::Counter efci_marked_;
  sim::Counter rm_cells_;
  sim::Counter timeouts_;
  sim::Counter aborted_;
  sim::Counter dma_drop_;
  sim::Counter serviced_;
  sim::Counter flushed_;
  std::array<sim::Counter, 7> error_counts_;
  sim::RunningStat latency_us_;

  aal::BufferPool buffers_;
  sim::Pool<Landing> landings_;

  // Deliveries completed but not yet covered by an interrupt; flushed
  // to the host when the controller fires. The two vectors trade
  // places per interrupt, so both keep their capacity.
  std::vector<RxDelivery> pending_deliveries_;
  std::vector<RxDelivery> handing_up_;
};

}  // namespace hni::nic
