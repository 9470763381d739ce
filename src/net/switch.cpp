#include "net/switch.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "atm/oam.hpp"
#include "atm/rm.hpp"

namespace hni::net {

namespace {
// While a registered input link (set_input_link) is down, the switch
// inserts an AIS cell per affected route every kAisPeriod — the I.610
// hop-by-hop alarm a failed trunk's downstream switch originates so
// endpoints learn of a mid-path failure in cell time.
constexpr sim::Time kAisPeriod = sim::microseconds(500);
}  // namespace

Switch::Switch(sim::Simulator& sim, SwitchConfig config)
    : sim_(sim), config_(config), outputs_(config.ports),
      inputs_(config.ports), hec_(config.ports),
      received_on_(config.ports, 0), forwarded_on_(config.ports, 0),
      wred_rng_(config.wred.seed) {
  if (config_.ports == 0 || config_.queue_cells == 0) {
    throw std::invalid_argument("Switch: ports and queue must be nonzero");
  }
  if (config_.clp_threshold > config_.queue_cells) {
    config_.clp_threshold = config_.queue_cells;
  }
  slot_ = config_.port_rate.cell_slot();
  port_cells_per_s_ = config_.port_rate.cells_per_second();
  if (config_.clock_ppm) {
    slot_ = static_cast<sim::Time>(static_cast<double>(slot_) *
                                       (1.0 + *config_.clock_ppm * 1e-6) +
                                   0.5);
  }
}

std::uint32_t Switch::route_label(std::size_t port, atm::VcId vc) {
  if (port > 0xFF) throw std::out_of_range("Switch: port exceeds label");
  if (vc.vpi > atm::kMaxUniVpi) {
    throw std::out_of_range("Switch: VPI exceeds UNI label width");
  }
  return (static_cast<std::uint32_t>(port) << 24) |
         (static_cast<std::uint32_t>(vc.vpi) << 16) |
         static_cast<std::uint32_t>(vc.vci);
}

void Switch::add_route(std::size_t in_port, atm::VcId vc,
                       std::size_t out_port, atm::VcId out_vc,
                       std::uint32_t weight, bool abr) {
  if (in_port >= config_.ports || out_port >= config_.ports) {
    throw std::out_of_range("Switch: port index");
  }
  auto [entry, inserted] = vcs_.try_emplace(route_label(in_port, vc));
  if (!entry->has_route) ++route_count_;
  entry->has_route = true;
  entry->out_port = static_cast<std::uint32_t>(out_port);
  entry->out_vc = out_vc;
  entry->weight = static_cast<std::uint16_t>(
      std::min<std::uint32_t>(std::max<std::uint32_t>(weight, 1), 0xFFFF));
  entry->abr = abr;
  entry->frame = FrameState{};
}

void Switch::add_policer(std::size_t in_port, atm::VcId vc,
                         double pcr_cells_per_second, sim::Time cdvt,
                         PoliceAction action) {
  if (in_port >= config_.ports) throw std::out_of_range("Switch: port");
  const std::uint32_t label = route_label(in_port, vc);
  auto [entry, inserted] = vcs_.try_emplace(label);
  if (entry->upc == Upc::kTrTcm) meters_.erase(label);
  entry->upc = action == PoliceAction::kDrop ? Upc::kGcraDrop : Upc::kGcraTag;
  entry->police = atm::Gcra::for_pcr(pcr_cells_per_second, cdvt);
}

void Switch::add_meter(std::size_t in_port, atm::VcId vc,
                       const atm::TrTcmConfig& meter) {
  if (in_port >= config_.ports) throw std::out_of_range("Switch: port");
  const std::uint32_t label = route_label(in_port, vc);
  auto [entry, inserted] = vcs_.try_emplace(label);
  entry->upc = Upc::kTrTcm;  // trTCM replaces any single-GCRA tagger
  auto [slot, fresh] = meters_.try_emplace(label);
  *slot = atm::TrTcm(meter);
}

bool Switch::remove_route(std::size_t in_port, atm::VcId vc) {
  // The whole record — route, policer/meter, frame-discard state — dies
  // with the connection (keeping frame state alive for a removed route
  // was a slow leak: nothing could ever clear it again).
  const std::uint32_t label = route_label(in_port, vc);
  const auto found = vcs_.find(label);
  if (found.value == nullptr) return false;
  const bool had_route = found.value->has_route;
  if (found.value->upc == Upc::kTrTcm) meters_.erase(label);
  if (had_route) {
    // Purge the closed VC's output queue (kFifo's shared queue is never
    // in `queues`, so its cells stay). Resident cells are accounted
    // as overflow drops (the queue-stage identity keeps balancing), the
    // active-ring ticket is retired before the record is erased so the
    // scheduler never dereferences a recycled arena slot, and a later
    // connection reusing the same out-VC label starts from a fresh
    // record instead of inheriting stale grant/deficit state.
    OutputPort& out = outputs_[found.value->out_port];
    const std::uint32_t out_label = atm::vc_label(found.value->out_vc);
    VcQueue* vq = out.queues.find(out_label).value;
    if (vq != nullptr) {
      const std::size_t resident = vq->cells.size();
      if (resident > 0) {
        out.occupancy -= resident;
        out.depth.set(sim_.now(), static_cast<double>(out.occupancy));
        for (std::size_t i = 0; i < resident; ++i) {
          dropped_.add();
          purged_close_.add();
        }
        out.order.erase_if([vq](const VcQueue* q) { return q == vq; });
      }
      out.queues.erase(out_label);
    }
  }
  vcs_.erase(label);
  if (had_route) --route_count_;
  return had_route;
}

void Switch::attach_output(std::size_t out_port, Link& link) {
  outputs_.at(out_port).link = &link;
}

void Switch::set_input_link(std::size_t in_port, Link& link) {
  InputPort& ip = inputs_.at(in_port);
  ip.link = &link;
  ip.down = link.is_down();
  link.add_state_observer([this, in_port](bool down) {
    InputPort& port = inputs_[in_port];
    if (port.down == down) return;
    port.down = down;
    ++port.epoch;  // kills any timer armed for the previous state
    if (down) insert_ais(in_port, port.epoch);
  });
  if (ip.down) insert_ais(in_port, ++ip.epoch);
}

void Switch::insert_ais(std::size_t in_port, std::uint64_t epoch) {
  InputPort& ip = inputs_[in_port];
  if (!ip.down || ip.epoch != epoch) return;
  // Walk the routes entering on the dead port in sorted label order
  // (deterministic however the table was populated) and originate one
  // AIS per connection, already translated onto the outgoing VC — the
  // next hop forwards it like any routed control cell, so the alarm
  // propagates to the endpoint however many switches remain.
  for_each_route([&](std::size_t port, atm::VcId in_vc, std::size_t,
                     atm::VcId out_vc) {
    if (port != in_port) return;
    const VcEntry* entry = vcs_.find(route_label(port, in_vc)).value;
    if (entry == nullptr) return;
    atm::OamCell oam;
    oam.function = atm::OamFunction::kAis;
    oam.tag = static_cast<std::uint64_t>(in_port);  // defect location
    const atm::Cell cell = oam.to_cell(out_vc);
    WireCell wire;
    wire.bytes = cell.serialize(atm::HeaderFormat::kUni);
    wire.meta = cell.meta;
    ais_inserted_.add();
    if (tracer_) {
      tracer_->emit({sim_.now(), sim::TraceEventId::kSwitchAisInsert,
                     trace_source_, static_cast<std::uint32_t>(in_port),
                     atm::vc_label(out_vc), 0});
    }
    inject_control(*entry, std::move(wire));
  });
  sim_.after(kAisPeriod,
             [this, in_port, epoch] { insert_ais(in_port, epoch); },
             sim::Layer::kOam);
}

void Switch::inject_control(const VcEntry& entry, WireCell wire) {
  // Switch-originated control cells enter the books at the queue stage:
  // they were never received on a port, so the receive-stage identity
  // balances them through cells_ais_inserted instead.
  queue_offered_.add();
  OutputPort& out = outputs_[entry.out_port];
  const std::size_t pool_limit =
      config_.queue_cells + config_.control_reserve_cells;
  if (out.occupancy >= pool_limit) {
    dropped_.add();
    return;
  }
  enqueue(entry, std::move(wire));
}

void Switch::enqueue(const VcEntry& entry, WireCell cell) {
  OutputPort& out = outputs_[entry.out_port];
  VcQueue* vq = &out.shared;
  if (config_.scheduler == SwitchScheduler::kFifo) {
    vq->grant = std::numeric_limits<std::uint32_t>::max();
  } else {
    vq = out.queues.try_emplace(atm::vc_label(entry.out_vc)).first;
    // Follow route reprogramming live.
    vq->grant = config_.scheduler == SwitchScheduler::kDwrr ? entry.weight : 1;
  }
  if (vq->cells.empty()) out.order.push_back(vq);  // now active
  vq->cells.push_back(std::move(cell));
  ++out.occupancy;
  out.depth.set(sim_.now(), static_cast<double>(out.occupancy));
  if (!out.serving) serve(entry.out_port);
}

bool Switch::wred_decides_drop(std::size_t occupancy, bool tagged) {
  const WredConfig& w = config_.wred;
  const std::size_t lo = tagged ? w.clp1_min_cells : w.min_cells;
  const std::size_t hi = tagged ? w.clp1_max_cells : w.max_cells;
  if (hi == 0 || occupancy < lo) return false;   // band disabled or idle
  if (occupancy > hi) return true;               // past the band: forced shed
  // Inside the band the ramp is linear, reaching exactly max_p at the
  // upper threshold — occupancy == hi still takes an RNG draw; only
  // beyond it is the drop unconditional.
  const double max_p = tagged ? w.clp1_max_p : w.max_p;
  const double p = hi == lo ? max_p
                            : max_p * static_cast<double>(occupancy - lo) /
                                  static_cast<double>(hi - lo);
  return wred_rng_.chance(p);
}

void Switch::receive(std::size_t in_port, const WireCell& wire) {
  received_.add();
  ++received_on_[in_port];
  // Validate/correct the header before trusting the VCI.
  WireCell cell = wire;
  auto header = std::span<std::uint8_t, 4>(cell.bytes.data(), 4);
  const auto verdict = hec_.at(in_port).push(header, cell.bytes[4]);
  if (verdict == atm::HecVerdict::kDiscard) {
    hec_discard_.add();
    return;
  }
  if (verdict == atm::HecVerdict::kCorrected) {
    // Re-stamp the HEC so downstream hops see a consistent codeword.
    cell.bytes[4] = atm::hec_compute(
        std::span<const std::uint8_t, 4>(cell.bytes.data(), 4));
  }

  atm::CellHeader h = atm::decode_header(
      std::span<const std::uint8_t, 4>(cell.bytes.data(), 4),
      atm::HeaderFormat::kUni);
  // One probe fetches the whole per-VC record: route, policer and
  // frame-discard state live in the same pooled entry.
  const std::uint32_t in_label = route_label(in_port, h.vc);
  VcEntry* entry = vcs_.find(in_label).value;
  if (entry == nullptr || !entry->has_route) {
    unroutable_.add();
    return;
  }

  // ERICA: a backward RM cell entering on this port reports on the
  // *forward* data that leaves through it — tighten its explicit rate
  // to this switch's grant before it continues toward the source.
  if (config_.abr.enabled && h.pti == atm::Pti::kResourceMgmt) {
    stamp_backward_rm(in_port, h, cell);
  }

  // Usage parameter control: non-conforming cells are dropped or tagged
  // discard-eligible before they reach the output queue.
  if (entry->upc != Upc::kNone) {
    if (entry->upc == Upc::kTrTcm) {
      // trTCM: green passes, yellow is tagged discard-eligible (the
      // policed_tag book keeps WRED's clp1-band reconciliation intact),
      // red dies here (counted as a policed drop so the receive-stage
      // conservation identity is unchanged).
      metered_.add();
      switch (meters_.find(in_label).value->color(sim_.now())) {
        case atm::MeterColor::kGreen:
          meter_green_.add();
          break;
        case atm::MeterColor::kYellow:
          meter_yellow_.add();
          policed_tag_.add();
          h.clp = true;
          break;
        case atm::MeterColor::kRed:
          meter_red_.add();
          policed_drop_.add();
          return;
      }
    } else if (!entry->police.police(sim_.now())) {
      if (entry->upc == Upc::kGcraDrop) {
        policed_drop_.add();
        return;
      }
      policed_tag_.add();
      h.clp = true;
    }
  }

  // From here the cell is in the output queue stage; every path below
  // must land in exactly one of {forwarded, overflow, clp, epd, ppd,
  // wred} or stay resident — audit_switch balances these books.
  queue_offered_.add();
  OutputPort& out = outputs_[entry->out_port];
  if (config_.abr.enabled) abr_account(*entry, out);

  // Frame-aware discard (EPD/PPD) for AAL5 traffic. Control cells
  // (OAM/RM, PTI 0b1xx) are not user data: they skip frame logic, WRED,
  // the CLP threshold and EFCI below — the congestion-control signal
  // must not be shed or mutated by the congestion it measures.
  const bool user_data = atm::pti_is_user_data(h.pti);
  const bool last_of_pdu = atm::pti_auu(h.pti);
  // Per-VC buffer accounting needs per-VC queues, so kFifo ignores it.
  const bool per_vc_books =
      config_.scheduler != SwitchScheduler::kFifo &&
      (config_.vc_epd_cells > 0 || config_.vc_queue_cells > 0);
  const auto vc_resident = [&]() -> std::size_t {
    const VcQueue* vq = out.queues.find(atm::vc_label(entry->out_vc)).value;
    return vq != nullptr ? vq->cells.size() : 0;
  };
  const bool frame_aware =
      (config_.epd_threshold > 0 ||
       (per_vc_books && config_.vc_epd_cells > 0)) &&
      user_data;
  bool fresh_pdu = false;  // this cell opens a new PDU on a frame-aware VC
  if (frame_aware) {
    FrameState& fs = entry->frame;
    if (fs.discard == FrameState::Discard::kWholePdu) {
      // EPD in progress: consume everything through the final cell.
      epd_drop_.add();
      if (last_of_pdu) {
        fs.discard = FrameState::Discard::kNone;
        fs.mid_pdu = false;
      }
      return;
    }
    if (fs.discard == FrameState::Discard::kTail) {
      // PPD: the PDU is already damaged; drop the useless remainder but
      // let the final cell through so the receiver terminates the frame
      // instead of splicing it into the next one.
      if (!last_of_pdu) {
        ppd_drop_.add();
        return;
      }
      fs.discard = FrameState::Discard::kNone;
      fs.mid_pdu = false;
      // fall through: the final cell is forwarded (queue permitting)
    } else if (!fs.mid_pdu) {
      // First cell of a fresh PDU: admit whole PDUs only while the
      // pool is below the EPD threshold and, with per-VC accounting
      // on, while this VC's own queue is below its gate.
      const bool pool_gate = config_.epd_threshold > 0 &&
                             out.occupancy >= config_.epd_threshold;
      const bool vc_gate = per_vc_books && config_.vc_epd_cells > 0 &&
                           vc_resident() >= config_.vc_epd_cells;
      if (pool_gate || vc_gate) {
        epd_drop_.add();
        epd_pdus_.add();
        if (!last_of_pdu) {
          fs.discard = FrameState::Discard::kWholePdu;
          fs.mid_pdu = true;
        }
        return;
      }
      fresh_pdu = true;
      fs.mid_pdu = true;
    }
    if (last_of_pdu) fs.mid_pdu = false;
  }

  // Color-aware random early discard. Tagged cells are tried per cell
  // (their lower band is what makes UPC's kTag consequential); untagged
  // frame-aware traffic is tried once per PDU, at its first cell, so a
  // WRED verdict sheds a whole frame via the EPD machinery instead of
  // sprinkling mid-PDU losses.
  if (config_.wred.enabled && user_data &&
      (h.clp || !frame_aware || fresh_pdu) &&
      wred_decides_drop(out.occupancy, h.clp)) {
    wred_drop_.add();
    if (h.clp) wred_drop_clp_.add();
    if (tracer_) {
      tracer_->emit({sim_.now(), sim::TraceEventId::kSwitchWredDrop,
                     trace_source_, static_cast<std::uint32_t>(entry->out_port),
                     h.clp ? 1u : 0u, cell.meta.seq});
    }
    if (frame_aware && !last_of_pdu) {
      // Extend the verdict over the rest of the frame: a dropped first
      // cell kills the whole PDU; a dropped tagged mid-PDU cell leaves
      // a damaged frame whose remainder is useless (PPD).
      entry->frame.discard = fresh_pdu ? FrameState::Discard::kWholePdu
                                       : FrameState::Discard::kTail;
      entry->frame.mid_pdu = true;
    }
    return;
  }

  // Hard per-VC residency cap: one connection's backlog cannot claim
  // pool space beyond its configured share. Mid-PDU overruns on a
  // frame-aware VC shed the damaged remainder via PPD, like any other
  // mid-frame loss.
  if (user_data && per_vc_books && config_.vc_queue_cells > 0 &&
      vc_resident() >= config_.vc_queue_cells) {
    vc_limit_drop_.add();
    if (frame_aware && !last_of_pdu) {
      entry->frame.discard = FrameState::Discard::kTail;
      entry->frame.mid_pdu = true;
    }
    return;
  }

  // Control cells may draw on a reserved headroom above the shared
  // pool: with the pool saturated, a tail-dropped backward RM cell
  // would stall the very throttling that could drain the queue.
  const std::size_t pool_limit =
      user_data ? config_.queue_cells
                : config_.queue_cells + config_.control_reserve_cells;
  if (out.occupancy >= pool_limit) {
    // Shared pool exhausted: tail drop (and, mid-PDU on a frame-aware
    // VC, shed the PDU's remainder too).
    dropped_.add();
    if (frame_aware && !last_of_pdu) {
      entry->frame.discard = FrameState::Discard::kTail;
      entry->frame.mid_pdu = true;
    }
    return;
  }
  if (user_data && h.clp && out.occupancy >= config_.clp_threshold) {
    clp_dropped_.add();
    return;
  }

  // Survivor. Mark EFCI once the pool is past the congestion threshold
  // — the forward signal the endpoints' closed loop feeds on.
  if (config_.efci_threshold > 0 && user_data &&
      out.occupancy >= config_.efci_threshold) {
    h.pti = atm::pti_with_efci(h.pti);
    efci_marked_.add();
    if (tracer_) {
      tracer_->emit({sim_.now(), sim::TraceEventId::kSwitchEfciMark,
                     trace_source_, static_cast<std::uint32_t>(entry->out_port),
                     atm::vc_label(entry->out_vc), cell.meta.seq});
    }
  }

  // Translate the VC and restamp the HEC.
  h.vc = entry->out_vc;
  atm::encode_header(h, atm::HeaderFormat::kUni,
                     std::span<std::uint8_t, 4>(cell.bytes.data(), 4));
  cell.bytes[4] = atm::hec_compute(
      std::span<const std::uint8_t, 4>(cell.bytes.data(), 4));

  enqueue(*entry, std::move(cell));
}

void Switch::serve(std::size_t out_port) {
  OutputPort& out = outputs_[out_port];
  if (out.occupancy == 0) {
    out.serving = false;
    return;
  }
  out.serving = true;
  // Deficit round robin: the head queue holds the turn until its grant
  // (refilled on reaching the head) is spent or it runs out of cells;
  // the grants therefore set the per-round service ratio.
  VcQueue* vq = out.order.front();
  if (vq->deficit == 0) vq->deficit = vq->grant;
  WireCell cell = vq->cells.take_front();
  --vq->deficit;
  if (vq->cells.empty()) {
    out.order.pop_front();  // drained: leave the ring, forfeit the grant
    vq->deficit = 0;
  } else if (vq->deficit == 0) {
    out.order.pop_front();  // grant spent: rotate to the ring's back
    out.order.push_back(vq);
  }
  --out.occupancy;
  out.depth.set(sim_.now(), static_cast<double>(out.occupancy));
  // The cell is committed to its output slot here, so count it now:
  // the queue-stage books (offered == forwarded + drops + resident)
  // then balance at any instant, not only at quiescence.
  forwarded_.add();
  ++forwarded_on_[out_port];
  sim_.after(slot_, [this, out_port, cell = std::move(cell)]() mutable {
    OutputPort& out = outputs_[out_port];
    if (out.link != nullptr) out.link->send_wire(std::move(cell));
    serve(out_port);
  }, sim::Layer::kSwitch);
}

void Switch::abr_account(const VcEntry& entry, OutputPort& out) {
  AbrMeasure& m = out.abr;
  const sim::Time now = sim_.now();
  ++m.total_cells;
  if (entry.abr) {
    ++m.abr_cells;
    auto [count, inserted] = m.per_vc.try_emplace(atm::vc_label(entry.out_vc));
    ++*count;
  }
  if (now - m.window_start < kAbrInterval) return;

  // Close the window: turn raw counts into the rate snapshot that
  // backward RM stamping reads until the next window completes.
  const double secs = sim::to_seconds(now - m.window_start);
  const double total_rate = static_cast<double>(m.total_cells) / secs;
  const double abr_rate = static_cast<double>(m.abr_cells) / secs;
  const double target = kAbrTargetUtilization * port_cells_per_s_;
  // Capacity left for the elastic class after the inelastic load, with
  // a small floor so a fully CBR/VBR-loaded port still grants ABR a
  // trickle to probe with instead of an ER of zero.
  m.abr_capacity = std::max(target - (total_rate - abr_rate), 0.01 * target);
  m.load_factor = abr_rate / m.abr_capacity;
  m.fair_share =
      m.abr_capacity / static_cast<double>(std::max<std::size_t>(
                           m.per_vc.size(), 1));
  m.vc_rate.clear();
  m.per_vc.for_each([&](std::uint32_t label, std::uint64_t& count) {
    auto [rate, inserted] = m.vc_rate.try_emplace(label);
    *rate = static_cast<double>(count) / secs;
  });
  m.per_vc.clear();
  m.valid = true;
  m.window_start = now;
  m.total_cells = 0;
  m.abr_cells = 0;
}

double Switch::compute_er(std::size_t out_port, std::uint32_t label) const {
  // ERICA: ER = min(max(fair_share, vc_rate / load_factor), capacity).
  // The vc_rate/z term lets an underloaded port raise everyone toward
  // full use; the fair-share floor lets a starved (or new) VC climb to
  // its max-min share regardless of its current measured rate.
  const AbrMeasure& m = outputs_[out_port].abr;
  if (!m.valid) return static_cast<double>(atm::kRmErUnlimited);
  const double* vcr = m.vc_rate.find(label).value;
  const double current = vcr != nullptr ? *vcr : 0.0;
  const double share =
      m.load_factor > 1e-12 ? current / m.load_factor : m.fair_share;
  return std::min(std::max(m.fair_share, share), m.abr_capacity);
}

void Switch::stamp_backward_rm(std::size_t in_port, const atm::CellHeader& h,
                               WireCell& cell) {
  std::uint8_t* payload = cell.bytes.data() + 5;
  if (!atm::rm_is_protocol(payload)) return;
  if ((atm::rm_flags(payload) & atm::kRmFlagBackward) == 0) return;
  // The forward data of this connection *leaves* on the port the
  // backward RM cell *enters* (the RM cell rides the reverse route), so
  // in_port's measurements — keyed by the forward out-VC label, which
  // is this cell's incoming VC — are the ones that apply.
  const double er = compute_er(in_port, atm::vc_label(h.vc));
  const std::uint32_t granted =
      er >= static_cast<double>(atm::kRmErUnlimited)
          ? atm::kRmErUnlimited
          : static_cast<std::uint32_t>(er);
  if (granted < atm::rm_explicit_rate(payload)) {
    atm::rm_set_explicit_rate(payload, granted);
    er_stamped_.add();
    if (tracer_) {
      tracer_->emit({sim_.now(), sim::TraceEventId::kSwitchErStamp,
                     trace_source_, static_cast<std::uint32_t>(in_port),
                     granted, cell.meta.seq});
    }
  }
}

std::size_t Switch::cells_queued() const {
  std::size_t total = 0;
  for (const OutputPort& out : outputs_) total += out.occupancy;
  return total;
}

double Switch::mean_queue_depth(std::size_t out_port) const {
  return outputs_.at(out_port).depth.mean(sim_.now());
}

double Switch::max_queue_depth(std::size_t out_port) const {
  return outputs_.at(out_port).depth.max();
}

}  // namespace hni::net
