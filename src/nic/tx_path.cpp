#include "nic/tx_path.hpp"

#include <algorithm>
#include <utility>

namespace hni::nic {

namespace {
// Staged PDUs one VC may hold at once, so no VC takes every staging
// slot (fairness).
constexpr std::size_t kStagedPerVc = 2;
}  // namespace

TxPath::TxPath(sim::Simulator& sim, bus::Bus& bus, bus::HostMemory& memory,
               const proc::FirmwareProfile& firmware, TxPathConfig config,
               atm::LineRate line)
    : sim_(sim),
      dma_(bus, memory, config.dma),
      firmware_(firmware),
      config_(config),
      profiler_(config.engine.clock_hz),
      engine_(sim, config.engine, sim::Layer::kTxEngine),
      fifo_(sim, config.fifo_cells),
      framer_(sim, std::move(line)) {
  ph_fetch_ = profiler_.phase("descriptor fetch + DMA program");
  ph_dma_wait_ = profiler_.phase("staging DMA wait (overlapped)");
  ph_trailer_ = profiler_.phase("CPCS trailer build");
  ph_header_ = profiler_.phase("cell header build + enqueue");
  ph_crc_ = profiler_.phase("payload CRC (software)");
  ph_stall_ = profiler_.phase("TX FIFO stall");
  ph_complete_ = profiler_.phase("PDU completion");
  engine_.set_profiler(&profiler_);
  ring_.reserve(config_.ring_entries);
  if (config_.clock_ppm) framer_.set_clock_ppm(*config_.clock_ppm);
  framer_.bind(fifo_);
  if (config_.watchdog_interval > 0) {
    watchdog_ = std::make_unique<Watchdog>(
        sim_, config_.watchdog_interval,
        [this] { return cells_.value(); },
        [this] { return has_runnable_work(); },
        [this] {
          // Reset: clear any wedge and restart both halves of the
          // pipeline. Non-destructive — staged cells survive.
          wedged_ = false;
          schedule_emission();
          maybe_stage_next();
        });
  }
}

TxPath::VcState& TxPath::state_for(atm::VcId vc) {
  auto [state, inserted] = vcs_.try_emplace(atm::vc_label(vc));
  if (inserted) {
    state->rr_index = static_cast<std::uint32_t>(rr_.size());
    rr_.push_back(vc);
  }
  return *state;
}

void TxPath::push_staged(VcState& vs, StagedPdu* slot) {
  slot->link = nullptr;
  if (vs.head == nullptr) {
    vs.ready_slot = static_cast<std::uint32_t>(ready_.size());
    ready_.push_back(&vs);
    vs.head = slot;
  } else {
    vs.tail->link = slot;
  }
  vs.tail = slot;
  ++vs.queued;
  ++staged_count_;
}

TxPath::StagedPdu* TxPath::pop_staged(VcState& vs) {
  StagedPdu* slot = vs.head;
  vs.head = slot->link;
  if (vs.head == nullptr) vs.tail = nullptr;
  --vs.queued;
  --staged_count_;
  if (vs.head != nullptr) return slot;
  // Swap-remove: ready_ has no order to keep.
  VcState* last = ready_.back();
  ready_[vs.ready_slot] = last;
  last->ready_slot = vs.ready_slot;
  ready_.pop_back();
  return slot;
}

void TxPath::complete(StagedPdu* slot) {
  const TxDescriptor done = std::move(slot->descriptor);
  slots_.release(slot);
  if (completion_) completion_(done);
}

void TxPath::register_metrics(const sim::MetricScope& scope) {
  scope.expose("pdus_sent", pdus_);
  scope.expose("cells_built", cells_);
  scope.expose("pdus_aborted", aborted_);
  scope.expose("pdus_dropped_paused", paused_drop_);
  scope.gauge("ring_occupancy",
              [this] { return static_cast<double>(ring_.size()); });
  engine_.register_metrics(scope.sub("engine"));
  fifo_.register_metrics(scope.sub("fifo"));
  dma_.register_metrics(scope.sub("dma"));
  scope.vc_family([this](sim::VcRowWriter& rows) {
    vcs_.for_each([&rows](std::uint32_t label, const VcState& vs) {
      const atm::VcId vc = atm::vc_from_label(label);
      rows.begin(vc.vpi, vc.vci);
      rows.counter("cells", vs.m_cells);
      rows.counter("pdus", vs.m_pdus);
    });
  });
}

bool TxPath::post(TxDescriptor descriptor) {
  if (ring_full()) return false;
  if (state_for(descriptor.vc).paused) {
    // A VC under a standing remote defect sheds new posts instead of
    // queueing unboundedly into a dead connection. Completion is
    // deferred one event so a driver that reposts from its completion
    // callback cannot reenter post() recursively.
    paused_drop_.add();
    sim_.after(0, [this, d = std::move(descriptor)] {
      if (completion_) completion_(d);
    }, sim::Layer::kTxEngine);
    return true;
  }
  ring_.push_back(std::move(descriptor));
  maybe_stage_next();
  return true;
}

void TxPath::pause_vc(atm::VcId vc) { state_for(vc).paused = true; }

void TxPath::resume_vc(atm::VcId vc) {
  VcState& vs = state_for(vc);
  if (!vs.paused) return;
  vs.paused = false;
  schedule_emission();
  maybe_stage_next();
}

bool TxPath::vc_paused(atm::VcId vc) const {
  const VcState* vs = vcs_.find(atm::vc_label(vc)).value;
  return vs != nullptr && vs->paused;
}

void TxPath::unwedge_engine() {
  if (!wedged_) return;
  wedged_ = false;
  schedule_emission();
  maybe_stage_next();
}

bool TxPath::has_runnable_work() const {
  if (!control_.empty()) return true;
  const sim::Time now = sim_.now();
  for (const VcState* vs : ready_) {
    if (vs->paused) continue;
    if (vs->shaper && !vs->shaper->conforms(now)) continue;
    return true;
  }
  // A stageable descriptor waiting while the staging pipeline sits idle
  // also counts: a wedge can strand work before it reaches a VC queue.
  if (staging_inflight_ == 0 && staged_count_ < config_.staged_pdus) {
    for (const auto& d : ring_) {
      const VcState* vs = vcs_.find(atm::vc_label(d.vc)).value;
      if (vs == nullptr) return true;
      if (!vs->paused && !vs->staging && vs->queued < kStagedPerVc) {
        return true;
      }
    }
  }
  return false;
}

void TxPath::inject_cell(atm::Cell cell) {
  control_.push_back(std::move(cell));
  schedule_emission();
}

void TxPath::apply_shaper(VcState& vs) {
  if (vs.contract_pcr <= 0.0) {
    // Best-effort VC: shaped only while throttled. At full recovery the
    // shaper must be shed entirely — a rebuilt GCRA at ~line rate would
    // keep pacing (and keep the shaper-wakeup machinery in the loop)
    // forever after the congestion that installed it is gone.
    if (vs.rate_factor >= 1.0) {
      vs.shaper.reset();
      return;
    }
    vs.shaper = atm::Gcra::for_pcr(
        framer_.rate().cells_per_second() * vs.rate_factor,
        vs.contract_cdvt);
    return;
  }
  vs.shaper = atm::Gcra::for_pcr(vs.contract_pcr * vs.rate_factor,
                                 vs.contract_cdvt);
}

void TxPath::set_shaper(atm::VcId vc, double pcr_cells_per_second,
                        sim::Time cdvt) {
  VcState& vs = state_for(vc);
  vs.contract_pcr = pcr_cells_per_second;
  vs.contract_cdvt = cdvt;
  apply_shaper(vs);
}

void TxPath::clear_shaper(atm::VcId vc) {
  VcState& vs = state_for(vc);
  vs.contract_pcr = 0.0;
  vs.contract_cdvt = 0;
  apply_shaper(vs);
}

void TxPath::set_rate_factor(atm::VcId vc, double factor) {
  VcState& vs = state_for(vc);
  // Snap near-unity factors to exactly 1.0: explicit-rate feedback
  // computes er/line_rate in floating point, and a factor of 0.999…
  // would rebuild a shaper at ~line rate instead of shedding it —
  // a stale GCRA throttling a fully recovered VC forever.
  if (factor >= 1.0 - 1e-9) factor = 1.0;
  vs.rate_factor = std::clamp(factor, 1.0 / 1024, 1.0);
  apply_shaper(vs);
  // A loosened throttle may make a blocked VC eligible right now.
  schedule_emission();
}

// Staging pipeline: the engine prefetches a descriptor and runs its DMA
// while already-staged PDUs drain through the FIFO — double buffering,
// so the wire does not idle during bus transfers. Staging is skipped
// over descriptors whose VC has reached its per-VC staging quota, so a
// deep queue on one VC cannot monopolize the board's staging slots.
void TxPath::maybe_stage_next() {
  if (wedged_) return;
  if (staging_inflight_ >= config_.staging_concurrency ||
      staged_count_ + staging_inflight_ >= config_.staged_pdus) {
    return;
  }
  // Pick the oldest descriptor whose VC has a free staging quota, no
  // staging already in flight (keeps every VC's PDUs in posting order),
  // and no standing pause (a paused VC must not pin staging slots).
  auto it = std::find_if(ring_.begin(), ring_.end(),
                         [this](const TxDescriptor& d) {
                           const VcState& vs = state_for(d.vc);
                           return !vs.staging && !vs.paused &&
                                  vs.queued < kStagedPerVc;
                         });
  if (it == ring_.end()) return;
  ++staging_inflight_;
  StagedPdu* slot = slots_.acquire();
  slot->descriptor = std::move(*it);
  ring_.erase(it);
  slot->vs = &state_for(slot->descriptor.vc);
  slot->vs->staging = true;
  // Per-PDU front work: descriptor fetch + DMA programming.
  const std::uint32_t instr =
      firmware_.tx.fetch_descriptor + firmware_.tx.program_dma;
  engine_.execute(ph_fetch_, instr, [this, slot] { stage_pdu(slot); });
}

void TxPath::stage_pdu(StagedPdu* slot) {
  const TxDescriptor& d = slot->descriptor;
  if (slot->bytes.size() < d.len) slot->bytes.resize(d.len);
  const std::span<std::uint8_t> sdu(slot->bytes.data(), d.len);
  // Stage the whole SDU across the bus into the slot, then build the
  // CPCS framing.
  const sim::Time issued = sim_.now();
  dma_.read(d.sg, 0, sdu,
            [this, slot, issued] {
              // Bus time the staging transfer took; overlapped with
              // emission of already-staged PDUs, so this is exposure,
              // not serial engine time.
              profiler_.add(ph_dma_wait_, sim_.now() - issued);
              finish_staging(slot);
            },
            [this, slot] {
              // Staging DMA gave up after retries: abandon the PDU and
              // free its slot; completion still fires so the driver
              // reclaims the host buffers.
              --staging_inflight_;
              slot->vs->staging = false;
              aborted_.add();
              complete(slot);
              maybe_stage_next();
            });
}

void TxPath::finish_staging(StagedPdu* slot) {
  engine_.execute(ph_trailer_, firmware_.tx.build_trailer, [this, slot] {
    const TxDescriptor& d = slot->descriptor;
    aal::FrameSegmenter seg(d.aal, d.vc);
    seg.segment(std::span<const std::uint8_t>(slot->bytes.data(), d.len),
                d.clp, slot->cells);
    slot->next = 0;
    VcState& vs = *slot->vs;
    push_staged(vs, slot);
    --staging_inflight_;
    vs.staging = false;
    schedule_emission();
    maybe_stage_next();
  });
}

// Round-robin, shaping-aware emission: one cell per grant, rotating
// across VCs with staged cells. Re-armed by staging completions, FIFO
// space, engine completions and shaper timers.
void TxPath::schedule_emission() {
  if (emit_busy_ || wedged_) return;
  if (fifo_.full()) {
    if (!fifo_wait_armed_) {
      fifo_wait_armed_ = true;
      fifo_stall_since_ = sim_.now();
      fifo_.wait_space([this] {
        fifo_wait_armed_ = false;
        // Line-rate backpressure: the engine sat on a built cell the
        // whole time the FIFO stayed full.
        profiler_.add(ph_stall_, sim_.now() - fifo_stall_since_);
        schedule_emission();
      });
    }
    return;
  }
  // Control cells (OAM/RM) first: tiny, latency-sensitive, unshaped.
  if (!control_.empty()) {
    emit_busy_ = true;
    atm::Cell cell = control_.take_front();
    engine_.execute(ph_header_, firmware_.tx.cell_overhead,
                    [this, cell = std::move(cell)]() mutable {
                      cell.meta.created = sim_.now();
                      cell.meta.seq = next_seq_++;
                      cells_.add();
                      // Priority lane: the control cell takes the next
                      // wire slot, ahead of queued user cells.
                      fifo_.push_front(std::move(cell));
                      emit_busy_ = false;
                      schedule_emission();
                    });
    return;
  }
  if (ready_.empty()) return;

  // The VC the rotation reaches first from rr_pos_ among those that can
  // emit now: the smallest (rr_index - rr_pos_) mod rr_.size(). Same
  // pick as a scan of the whole rotation, at the cost of the ready set.
  const sim::Time now = sim_.now();
  const std::size_t n = rr_.size();
  sim::Time earliest = sim::kTimeNever;
  const VcState* best = nullptr;
  std::size_t best_dist = n;
  for (const VcState* vs : ready_) {
    if (vs->paused) continue;
    if (vs->shaper && !vs->shaper->conforms(now)) {
      earliest = std::min(earliest, vs->shaper->eligible_at());
      continue;
    }
    const std::size_t dist = (vs->rr_index + n - rr_pos_) % n;
    if (dist < best_dist) {
      best_dist = dist;
      best = vs;
    }
  }
  if (best != nullptr) {
    rr_pos_ = (best->rr_index + 1) % n;
    emit_one(rr_[best->rr_index]);
    return;
  }
  if (earliest != sim::kTimeNever && earliest > now) {
    // Everything pending is shaper-blocked; wake at first eligibility.
    if (shaper_wakeup_at_ > earliest) {
      sim_.cancel(shaper_wakeup_);
      shaper_wakeup_at_ = earliest;
      shaper_wakeup_ = sim_.at(earliest, [this] {
        shaper_wakeup_at_ = sim::kTimeNever;
        schedule_emission();
      }, sim::Layer::kTxEngine);
    }
  }
}

void TxPath::emit_one(atm::VcId vc) {
  emit_busy_ = true;
  VcState& vs = vc_state(vc);
  StagedPdu& pdu = *vs.head;
  const TxDescriptor& d = pdu.descriptor;
  const std::size_t next = pdu.next;
  const proc::CellPosition pos{next == 0, next + 1 == pdu.cells.size()};
  const std::uint32_t instr =
      proc::tx_cell_instructions(firmware_, d.aal, pos);
  // One engine occupancy, two budget lines: header/bookkeeping vs the
  // software-CRC share (zero with the CRC offload).
  const std::uint32_t crc_instr =
      proc::tx_cell_crc_instructions(firmware_, d.aal);
  profiler_.add(ph_header_, engine_.cost(instr - crc_instr));
  if (crc_instr > 0) profiler_.add(ph_crc_, engine_.cost(crc_instr));

  engine_.execute(instr, [this, vc] {
    VcState& vs = vc_state(vc);
    StagedPdu& pdu = *vs.head;
    atm::Cell cell = pdu.cells[pdu.next];
    cell.meta.created = sim_.now();
    cell.meta.seq = next_seq_++;
    cells_.add();
    vs.m_cells.add();
    fifo_.push(std::move(cell));  // scheduler checked space; cannot drop
    if (vs.shaper) vs.shaper->commit(sim_.now());
    ++pdu.next;
    if (pdu.next < pdu.cells.size()) {
      emit_busy_ = false;
      schedule_emission();
      return;
    }
    // Last cell handed over: per-PDU completion work. The slot leaves
    // the VC's queue now and returns to the pool when that work ends.
    StagedPdu* done = pop_staged(vs);
    engine_.execute(ph_complete_, firmware_.tx.complete_pdu,
                    [this, &vs, done] {
                      pdus_.add();
                      vs.m_pdus.add();
                      complete(done);
                      emit_busy_ = false;
                      schedule_emission();
                      maybe_stage_next();
                    });
    maybe_stage_next();
  });
}

}  // namespace hni::nic
