#include "nic/rx_path.hpp"

#include <optional>
#include <utility>

#include "aal/aal34.hpp"
#include "nic/nic.hpp"

namespace hni::nic {

namespace {
// Pre-sizes the VC table's index (it grows past this on demand; probe
// cost is measured, not configured).
constexpr std::size_t kVcBuckets = 64;
}  // namespace

RxPath::RxPath(sim::Simulator& sim, bus::Bus& bus, bus::HostMemory& memory,
               const proc::FirmwareProfile& firmware, RxPathConfig config,
               Nic* owner)
    : sim_(sim),
      memory_(memory),
      dma_(bus, memory, config.dma),
      firmware_(firmware),
      config_(config),
      profiler_(config.engine.clock_hz),
      engine_(sim, config.engine, sim::Layer::kRxEngine),
      fifo_(sim, config.fifo_cells),
      board_(sim, config.board),
      vcs_(kVcBuckets),
      interrupts_(sim, config.interrupt_coalesce),
      owner_(owner),
      posted_pages_(memory.pages_free()) {
  ph_arrival_ = profiler_.phase("cell arrival + VC lookup");
  ph_append_ = profiler_.phase("buffer append / reassembly");
  ph_crc_ = profiler_.phase("payload CRC (software)");
  ph_oam_ = profiler_.phase("OAM cell handling");
  ph_deliver_ = profiler_.phase("PDU delivery");
  ph_dma_wait_ = profiler_.phase("landing DMA wait (overlapped)");
  engine_.set_profiler(&profiler_);
  fifo_.set_on_push([this] { service(); });
  if (config_.reassembly_timeout > 0) {
    sim_.after(config_.reassembly_timeout, [this] { sweep_stale_pdus(); });
  }
  if (config_.watchdog_interval > 0) {
    watchdog_ = std::make_unique<Watchdog>(
        sim_, config_.watchdog_interval,
        [this] { return serviced_.value(); },
        [this] { return !fifo_.empty(); },
        [this] { reset_engine(); });
  }
  interrupts_.set_handler([this](std::size_t batch) {
    // One interrupt covers `batch` PDU completions; hand them all up.
    handing_up_.swap(pending_deliveries_);
    for (std::size_t i = 0; i < handing_up_.size(); ++i) {
      handing_up_[i].interrupt_batch = batch;
      handing_up_[i].first_of_batch = (i == 0);
      if (deliver_) deliver_(std::move(handing_up_[i]));
    }
    handing_up_.clear();
  });
}

void RxPath::open_vc(atm::VcId vc, aal::AalType aal) {
  VcState state;
  state.aal = aal;
  state.reasm = std::make_unique<aal::FrameReassembler>(
      aal, aal::FrameReassembler::Config(), &buffers_);
  vcs_.insert(atm::vc_label(vc), std::move(state));
}

void RxPath::register_metrics(const sim::MetricScope& scope) {
  scope.expose("cells_received", cells_in_);
  scope.expose("cells_hec_discarded", hec_discard_);
  scope.expose("cells_hec_corrected", hec_corrected_);
  scope.expose("cells_no_vc", no_vc_);
  scope.expose("cells_serviced", serviced_);
  scope.expose("cells_flushed", flushed_);
  scope.expose("pdus_delivered", pdus_ok_);
  scope.expose("pdus_errored", pdus_err_);
  scope.expose("pdus_dropped_board", board_drop_);
  scope.expose("pdus_dropped_host_buffers", host_buffer_drop_);
  scope.expose("pdus_dropped_dma", dma_drop_);
  scope.expose("pdus_timed_out", timeouts_);
  scope.expose("pdus_aborted", aborted_);
  scope.expose("oam_cells", oam_cells_);
  scope.expose("oam_cells_bad", oam_bad_);
  scope.expose("cells_efci_marked", efci_marked_);
  scope.expose("rm_cells", rm_cells_);
  scope.expose_stat("pdu_latency_us", latency_us_);
  scope.gauge("board_containers_in_use",
              [this] { return static_cast<double>(board_.containers_in_use()); });
  scope.gauge("board_alloc_failures",
              [this] { return static_cast<double>(board_.alloc_failures()); });
  scope.gauge("interrupts",
              [this] { return static_cast<double>(interrupts_.interrupts()); });
  engine_.register_metrics(scope.sub("engine"));
  fifo_.register_metrics(scope.sub("fifo"));
  dma_.register_metrics(scope.sub("dma"));
  scope.vc_family([this](sim::VcRowWriter& rows) {
    vcs_.for_each([&rows](std::uint32_t label, const VcState& vs) {
      const atm::VcId vc = atm::vc_from_label(label);
      rows.begin(vc.vpi, vc.vci);
      rows.counter("cells", vs.m_cells);
      rows.counter("cells_efci_marked", vs.m_efci);
      rows.counter("pdus", vs.m_pdus);
    });
  });
}

void RxPath::close_vc(atm::VcId vc) {
  board_.release(chain_key(vc));
  vcs_.erase(atm::vc_label(vc));
}

void RxPath::receive_wire(const net::WireCell& wire) {
  cells_in_.add();
  auto bytes = wire.bytes;  // mutable copy: HEC may correct a bit
  auto header = std::span<std::uint8_t, 4>(bytes.data(), 4);
  const auto verdict = hec_.push(header, bytes[4]);
  if (verdict == atm::HecVerdict::kDiscard) {
    hec_discard_.add();
    return;
  }
  if (verdict == atm::HecVerdict::kCorrected) hec_corrected_.add();

  atm::Cell cell = atm::Cell::deserialize(
      std::span<const std::uint8_t, atm::kCellSize>(bytes.data(),
                                                    atm::kCellSize),
      atm::HeaderFormat::kUni);
  cell.meta = wire.meta;
  if (!atm::pti_is_user_data(cell.header.pti)) {
    // OAM/control cells take the priority lane: they jump the queue so
    // fault management survives a FIFO full of user data. A drop here
    // is counted separately (priority_drops) — losing an alarm is a
    // different failure than shedding load.
    fifo_.push_front(std::move(cell));
    return;
  }
  fifo_.push(std::move(cell));  // drop counted by the FIFO when full
}

bool RxPath::is_last_cell(const atm::Cell& cell, aal::AalType aal) {
  if (aal == aal::AalType::kAal5) return atm::pti_auu(cell.header.pti);
  const auto st = static_cast<aal::SegmentType>(cell.payload[0] >> 6);
  return st == aal::SegmentType::kEom || st == aal::SegmentType::kSsm;
}

void RxPath::unwedge_engine() {
  if (!wedged_) return;
  wedged_ = false;
  service();
}

void RxPath::reset_engine() {
  // Hardware abort: the engine restarts from a clean state. Cells still
  // in the FIFO belong to interrupted streams — discard them.
  wedged_ = false;
  while (fifo_.pop()) flushed_.add();
  // Reclaim the containers of every interrupted reassembly and reset
  // the streams so the next first cell starts a fresh PDU.
  vcs_.for_each([this](std::uint32_t label, VcState& state) {
    if (!state.reasm->mid_pdu()) return;
    aborted_.add();
    board_.release(chain_key(atm::vc_from_label(label)));
    state.reasm->reset();
  });
  service();
}

void RxPath::service() {
  if (engine_busy_ || wedged_) return;
  std::optional<atm::Cell> cell = fifo_.pop();
  if (!cell) return;
  serviced_.add();
  engine_busy_ = true;

  auto found = vcs_.find(atm::vc_label(cell->header.vc));
  if (found.value == nullptr) {
    // Unknown VC: the engine still pays arrival + lookup to find out.
    no_vc_.add();
    const std::uint32_t instr = rx_cell_instructions(
        firmware_, aal::AalType::kAal5, proc::CellPosition{false, false},
        found.extra_probes);
    engine_.execute(ph_arrival_, instr, [this] { step_done(); });
    return;
  }

  VcState& state = *found.value;

  // Any cell on a known VC proves the connection is alive — the
  // continuity-check sink resets its loss-of-continuity clock on this.
  if (owner_ != nullptr) owner_->on_activity(cell->header.vc);

  std::uint32_t instr = firmware_.rx.oam_cell;
  if (!atm::pti_is_user_data(cell->header.pti)) {
    // OAM and RM cells: control-plane budget, no reassembly.
    profiler_.add(ph_oam_, engine_.cost(instr));
  } else {
    const proc::CellPosition pos{is_first_cell(*cell, state),
                                 is_last_cell(*cell, state.aal)};
    instr = rx_cell_instructions(firmware_, state.aal, pos,
                                 found.extra_probes);
    // One engine occupancy, three budget lines: arrival + VC lookup, the
    // software-CRC share (zero with the offload), append/reassembly rest.
    const std::uint32_t arrival_instr =
        firmware_.rx.cell_arrival +
        rx_cell_lookup_instructions(firmware_, found.extra_probes);
    const std::uint32_t crc_instr =
        rx_cell_crc_instructions(firmware_, state.aal);
    profiler_.add(ph_arrival_, engine_.cost(arrival_instr));
    profiler_.add(ph_append_, engine_.cost(instr - arrival_instr - crc_instr));
    if (crc_instr > 0) profiler_.add(ph_crc_, engine_.cost(crc_instr));
  }
  engine_.execute(instr, [this, c = std::move(*cell)]() mutable {
    finish_cell(std::move(c));
  });
}

bool RxPath::is_first_cell(const atm::Cell& cell, const VcState& state) {
  if (state.aal == aal::AalType::kAal5) return !state.reasm->mid_pdu();
  const auto st = static_cast<aal::SegmentType>(cell.payload[0] >> 6);
  return st == aal::SegmentType::kBom || st == aal::SegmentType::kSsm;
}

void RxPath::sweep_stale_pdus() {
  const sim::Time now = sim_.now();
  vcs_.for_each([&](std::uint32_t label, VcState& state) {
    if (!state.reasm->mid_pdu()) return;
    if (now - state.last_activity < config_.reassembly_timeout) return;
    // A PDU went quiet mid-assembly (lost final cell, dead sender):
    // reclaim its containers and reset the stream.
    timeouts_.add();
    board_.release(chain_key(atm::vc_from_label(label)));
    state.reasm->reset();
  });
  sim_.after(config_.reassembly_timeout, [this] { sweep_stale_pdus(); });
}

void RxPath::finish_cell(atm::Cell cell) {
  const atm::VcId vc = cell.header.vc;
  // Re-find the state: the VC may have closed while the engine worked.
  VcState* state = vcs_.find(atm::vc_label(vc)).value;
  if (state == nullptr) {
    no_vc_.add();
    step_done();
    return;
  }

  // Resource-management cells: congestion feedback, neither OAM nor
  // reassembly.
  if (cell.header.pti == atm::Pti::kResourceMgmt) {
    rm_cells_.add();
    if (owner_ != nullptr) owner_->on_rm(vc, cell);
    step_done();
    return;
  }

  // OAM cells: fault-management handling.
  if (!atm::pti_is_user_data(cell.header.pti)) {
    oam_cells_.add();
    if (auto oam = atm::OamCell::parse(cell)) {
      if (owner_ != nullptr) owner_->on_oam(vc, *oam);
    } else {
      oam_bad_.add();
    }
    step_done();
    return;
  }

  state->last_activity = sim_.now();
  state->m_cells.add();

  // EFCI: a congested queue upstream marked this cell. Count it and
  // tell the congestion controller before reassembly touches the cell.
  if (atm::pti_efci(cell.header.pti)) {
    efci_marked_.add();
    state->m_efci.add();
    if (owner_ != nullptr) owner_->on_efci(vc);
  }

  // Board memory accounting: one cell appended to this VC's chain.
  if (!board_.add_cell(chain_key(vc))) {
    // Pool exhausted: the in-progress PDU on this VC is abandoned.
    board_drop_.add();
    board_.release(chain_key(vc));
    state->reasm->reset();
    step_done();
    return;
  }

  std::optional<aal::FrameDelivery> done = state->reasm->push(cell);
  if (!done) {
    step_done();
    return;
  }
  complete_pdu(vc, std::move(*done));
}

void RxPath::complete_pdu(atm::VcId vc, aal::FrameDelivery d) {
  board_.release(chain_key(vc));
  if (!d.ok()) {
    pdus_err_.add();
    error_counts_[static_cast<std::size_t>(d.error)].add();
    step_done();
    return;
  }

  // Per-PDU delivery work, then the DMA to host memory. The engine is
  // free once the DMA is programmed; the transfer itself is hardware.
  engine_.execute(ph_deliver_, rx_pdu_instructions(firmware_),
                  [this, vc, d = std::move(d)]() mutable {
    // Host pages come out of the driver's posted budget.
    const std::size_t pages =
        (d.sdu.size() + memory_.page_bytes() - 1) / memory_.page_bytes();
    if (pages > posted_pages_ || pages > memory_.pages_free()) {
      host_buffer_drop_.add();
      buffers_.give(std::move(d.sdu));
      step_done();
      return;
    }
    posted_pages_ -= pages;
    Landing* l = landings_.acquire();
    l->vc = vc;
    l->sg = memory_.alloc(d.sdu.size());
    l->sdu = std::move(d.sdu);
    l->first_cell_time = d.first_cell_time;
    // Engine moves on; DMA completes in the background.
    step_done();
    l->issued = sim_.now();
    dma_.write(l->sg, 0, l->sdu, [this, l] { landed(l); },
               [this, l] { landing_failed(l); });
  });
}

void RxPath::landed(Landing* l) {
  profiler_.add(ph_dma_wait_, sim_.now() - l->issued);
  RxDelivery out;
  out.vc = l->vc;
  out.sg = std::move(l->sg);
  out.len = l->sdu.size();
  out.first_cell_time = l->first_cell_time;
  out.delivered_time = sim_.now();
  buffers_.give(std::move(l->sdu));
  landings_.release(l);
  latency_us_.add(
      sim::to_microseconds(out.delivered_time - out.first_cell_time));
  pdus_ok_.add();
  // The VC may have closed while the DMA was in flight; its per-VC
  // books went with it.
  if (VcState* vs = vcs_.find(atm::vc_label(out.vc)).value) {
    vs->m_pdus.add();
  }
  pending_deliveries_.push_back(std::move(out));
  interrupts_.post();
}

void RxPath::landing_failed(Landing* l) {
  // Landing DMA gave up: the reassembled PDU is lost and its host
  // pages are posted again.
  dma_drop_.add();
  repost(l->sg);
  buffers_.give(std::move(l->sdu));
  landings_.release(l);
}

}  // namespace hni::nic
