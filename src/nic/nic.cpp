#include "nic/nic.hpp"

#include <algorithm>

#include "atm/rm.hpp"

namespace hni::nic {

Nic::Nic(sim::Simulator& sim, bus::Bus& bus, bus::HostMemory& memory,
         NicConfig config)
    : config_(std::move(config)), sim_(&sim) {
  tx_ = std::make_unique<TxPath>(sim, bus, memory, config_.firmware,
                                 config_.tx, config_.line);
  rx_ = std::make_unique<RxPath>(sim, bus, memory, config_.firmware,
                                 config_.rx, this);
}

namespace {
// EFCI marks on a VC within kMarkWindow that trigger one backward RM.
constexpr std::uint32_t kMarksPerRm = 8;
constexpr sim::Time kMarkWindow = sim::microseconds(250);
// Minimum gap between RM cells per VC (paces the backward stream).
constexpr sim::Time kRmMinGap = sim::microseconds(250);
// Multiplicative increase applied per quiet recovery period.
constexpr double kRateIncrease = 1.5;
constexpr double kMinRateFactor = 1.0 / 64;

// Backward resource-management cell (ABR-flavoured), layout per
// atm/rm.hpp: protocol id, flags (CI + BN), and an explicit-rate field
// born unlimited — switches running ERICA tighten it in flight.
atm::Cell make_rm_cell(atm::VcId vc, bool congestion) {
  atm::Cell c;
  c.header.vc = vc;
  c.header.pti = atm::Pti::kResourceMgmt;
  c.payload[0] = atm::kRmProtocolId;
  atm::rm_set_flags(c.payload.data(),
                    static_cast<std::uint8_t>(
                        atm::kRmFlagBackward |
                        (congestion ? atm::kRmFlagCi : 0)));
  atm::rm_set_explicit_rate(c.payload.data(), atm::kRmErUnlimited);
  return c;
}
}  // namespace

void Nic::on_efci(atm::VcId vc) {
  if (!config_.congestion.enabled) return;
  VcRecord& rec = record(vc);
  const sim::Time now = sim_->now();
  if (!rec.congestion || now - rec.window_start > kMarkWindow) {
    // A stale window's marks do not accumulate: sustained congestion,
    // not a lone straggler cell, is what triggers feedback.
    rec.congestion = true;
    rec.window_start = now;
    rec.marks = 0;
  }
  ++rec.marks;
  if (rec.marks < kMarksPerRm) return;
  if (rec.rm_ever_sent && now - rec.last_rm_sent < kRmMinGap) return;
  rec.marks = 0;
  rec.window_start = now;
  rec.rm_ever_sent = true;
  rec.last_rm_sent = now;
  rm_sent_.add();
  // Backward RM on the same VC: the network's reverse route carries it
  // to the source, whose RX path hands it to on_rm there.
  tx_->inject_cell(make_rm_cell(vc, true));
}

void Nic::on_rm(atm::VcId vc, const atm::Cell& cell) {
  rm_received_.add();
  const CongestionControlConfig& cc = config_.congestion;
  if (!cc.enabled) return;
  if (!atm::rm_is_protocol(cell.payload.data())) return;
  // Contracted VCs are not throttled: their PCR is an admission-time
  // commitment (CAC already sized the network for it); the elastic
  // best-effort traffic is what backs off.
  if (tx_->has_contract(vc)) return;

  const std::uint32_t er = atm::rm_explicit_rate(cell.payload.data());
  const bool explicit_rate = cc.explicit_rate && er != atm::kRmErUnlimited;
  if (!explicit_rate &&
      (atm::rm_flags(cell.payload.data()) & atm::kRmFlagCi) == 0) {
    return;
  }
  VcRecord& rec = record(vc);
  rec.congestion = true;
  const double current = tx_->rate_factor(vc);
  if (explicit_rate) {
    // ERICA: jump the shaper straight to the tightest grant any switch
    // on the path stamped — no blind decrease, no hunting. The grant is
    // the path minimum already, so each RM cell is authoritative.
    const double line = config_.line.cells_per_second();
    const double factor = std::clamp(static_cast<double>(er) / line,
                                     kMinRateFactor, 1.0);
    if (factor < 1.0) rec.last_congestion = sim_->now();
    if (factor < current) throttle_events_.add();
    if (factor != current) tx_->set_rate_factor(vc, factor);
    if (factor < 1.0) arm_recovery(rec, vc);
    return;
  }

  rec.last_congestion = sim_->now();
  const double next = std::max(kMinRateFactor, current * cc.decrease);
  if (next < current) {
    throttle_events_.add();
    tx_->set_rate_factor(vc, next);
  }
  arm_recovery(rec, vc);
}

void Nic::arm_recovery(VcRecord& rec, atm::VcId vc) {
  if (rec.recovery_token != 0) return;
  rec.recovery_token = ++last_token_;
  schedule_recovery(vc, rec.recovery_token);
}

void Nic::schedule_recovery(atm::VcId vc, std::uint64_t token) {
  sim_->after(kRecoveryPeriod, [this, vc, token] {
    VcRecord* rec = armed(vc, &VcRecord::recovery_token, token);
    if (rec == nullptr) return;  // VC closed meanwhile
    if (sim_->now() - rec->last_congestion < kRecoveryPeriod) {
      // Congestion refreshed the quiet timer: try again later.
      schedule_recovery(vc, token);
      return;
    }
    const double factor = tx_->rate_factor(vc);
    if (factor >= 1.0) {
      rec->recovery_token = 0;
      return;
    }
    const double next = std::min(1.0, factor * kRateIncrease);
    recoveries_.add();
    tx_->set_rate_factor(vc, next);
    if (next >= 1.0) {
      rec->recovery_token = 0;
      return;
    }
    schedule_recovery(vc, token);
  });
}

void Nic::notify_defect(atm::VcId vc, Defect defect, bool active) {
  for (const auto& observer : defect_observers_) observer(vc, defect, active);
}

void Nic::trace_cc(atm::VcId vc, bool declared) {
  if (tracer_ == nullptr) return;
  tracer_->emit({sim_->now(), sim::TraceEventId::kOamCc, trace_source_,
                 atm::vc_label(vc), declared ? 1u : 0u, 0});
}

void Nic::clear_loc(atm::VcId vc) {
  cc_cleared_.add();
  trace_cc(vc, false);
  notify_defect(vc, Defect::kLoc, false);
}

void Nic::start_cc(atm::VcId vc) {
  if (!config_.cc.enabled) return;
  VcRecord& rec = record(vc);
  rec.last_arrival = sim_->now();
  const std::uint64_t token = rec.cc_token = ++last_token_;
  sim_->after(kCcPeriod, [this, vc, token] { cc_tick(vc, token); },
              sim::Layer::kOam);
}

void Nic::stop_cc(atm::VcId vc) {
  VcRecord* rec = records_.find(atm::vc_label(vc)).value;
  if (rec == nullptr || rec->cc_token == 0) return;
  const bool loc = rec->loc;
  const bool ais = rec->ais_standing;
  rec->cc_token = 0;
  rec->loc = false;
  rec->ais_standing = false;
  // A standing alarm dies with the monitoring, through the same books
  // and observers a live clear would use — nothing stays declared on a
  // connection that no longer exists.
  if (loc) clear_loc(vc);
  if (ais) notify_defect(vc, Defect::kAis, false);
}

void Nic::on_activity(atm::VcId vc) {
  if (!config_.cc.enabled) return;
  VcRecord* rec = records_.find(atm::vc_label(vc)).value;
  if (rec == nullptr || rec->cc_token == 0) return;
  rec->last_arrival = sim_->now();
  if (rec->loc) {
    // Continuity proved again: clear the alarm on the first arrival.
    rec->loc = false;
    clear_loc(vc);
  }
}

void Nic::cc_tick(atm::VcId vc, std::uint64_t token) {
  VcRecord* rec = armed(vc, &VcRecord::cc_token, token);
  if (rec == nullptr) return;
  const sim::Time now = sim_->now();
  // Source role: the heartbeat that keeps the far sink's LOC clock
  // reset even when the application has nothing to say.
  atm::OamCell oam;
  oam.function = atm::OamFunction::kContinuityCheck;
  cc_sent_.add();
  tx_->inject_cell(oam.to_cell(vc));
  // AIS hold expiry: indications stopped arriving, the alarm clears.
  if (rec->ais_standing && now >= rec->ais_until) {
    rec->ais_standing = false;
    notify_defect(vc, Defect::kAis, false);
  }
  // Sink role: declare LOC once the silence crosses the threshold —
  // unless AIS stands, which already names the failure hop-by-hop.
  const auto threshold = static_cast<sim::Time>(
      static_cast<double>(kCcPeriod) * kCcLossMultiplier);
  if (!rec->loc && !rec->ais_standing &&
      now - rec->last_arrival > threshold) {
    rec->loc = true;
    cc_declared_.add();
    trace_cc(vc, true);
    notify_defect(vc, Defect::kLoc, true);
  }
  sim_->after(kCcPeriod, [this, vc, token] { cc_tick(vc, token); },
              sim::Layer::kOam);
}

void Nic::close_vc(atm::VcId vc) {
  stop_cc(vc);
  rx_->close_vc(vc);
  // Abandon loopbacks the closed VC will never answer. Sorted walk so
  // the sweep order (and the books it feeds) is byte-deterministic.
  std::vector<std::uint64_t> stale;
  outstanding_loopbacks_.for_each_sorted(
      [&](std::uint64_t tag, const PendingLoopback& p) {
        if (p.vc == vc) stale.push_back(tag);
      });
  for (const std::uint64_t tag : stale) {
    outstanding_loopbacks_.erase(tag);
    ++loopbacks_abandoned_;
  }
  // Erasing the record kills its timers. A standing RDI pause and a
  // lingering throttle go with it, or a reopened VC would start life
  // frozen or slowed.
  const VcRecord* rec = records_.find(atm::vc_label(vc)).value;
  if (rec == nullptr) return;
  if (rec->rdi_token != 0 && tx_->vc_paused(vc)) tx_->resume_vc(vc);
  if (rec->congestion) tx_->set_rate_factor(vc, 1.0);
  records_.erase(atm::vc_label(vc));
}

void Nic::send_loopback(atm::VcId vc, std::uint64_t tag) {
  ++loopbacks_sent_;
  outstanding_loopbacks_.insert(tag, PendingLoopback{vc, sim_->now()});
  atm::OamCell oam;
  oam.function = atm::OamFunction::kLoopbackRequest;
  oam.tag = tag;
  tx_->inject_cell(oam.to_cell(vc));
}

void Nic::on_oam(atm::VcId vc, const atm::OamCell& oam) {
  switch (oam.function) {
    case atm::OamFunction::kLoopbackRequest: {
      // Answer on the same VC: the firmware turns the cell around.
      ++loopbacks_answered_;
      atm::OamCell reply;
      reply.function = atm::OamFunction::kLoopbackResponse;
      reply.tag = oam.tag;
      reply.end_to_end = oam.end_to_end;
      tx_->inject_cell(reply.to_cell(vc));
      break;
    }
    case atm::OamFunction::kLoopbackResponse: {
      const PendingLoopback* pending =
          outstanding_loopbacks_.find(oam.tag).value;
      if (pending == nullptr) break;
      const sim::Time rtt = sim_->now() - pending->sent;
      outstanding_loopbacks_.erase(oam.tag);
      loopbacks_completed_.add();
      if (loopback_handler_) loopback_handler_(vc, oam.tag, rtt);
      break;
    }
    case atm::OamFunction::kAis: {
      // Downstream path declared dead: echo a remote defect indication
      // upstream so the far end stops transmitting into the failure.
      ais_received_.add();
      atm::OamCell rdi;
      rdi.function = atm::OamFunction::kRdi;
      rdi.tag = oam.tag;
      rdi.end_to_end = oam.end_to_end;
      rdi_sent_.add();
      tx_->inject_cell(rdi.to_cell(vc));
      // CC interplay: AIS names the failure already, so it suppresses
      // (and supersedes) the sink's loss-of-continuity alarm while the
      // indications keep arriving.
      VcRecord* rec = records_.find(atm::vc_label(vc)).value;
      if (rec == nullptr || rec->cc_token == 0) break;
      rec->ais_until = sim_->now() + kAisHold;
      if (!rec->ais_standing) {
        rec->ais_standing = true;
        notify_defect(vc, Defect::kAis, true);
      }
      if (rec->loc) {
        rec->loc = false;
        clear_loc(vc);
      }
      break;
    }
    case atm::OamFunction::kRdi: {
      // The far end cannot hear us: pause the VC rather than pour
      // cells into a dead path. Each RDI extends the hold; the VC
      // resumes kRdiHold after the indications stop.
      rdi_received_.add();
      VcRecord& rec = record(vc);
      rec.rdi_until = sim_->now() + kRdiHold;
      tx_->pause_vc(vc);
      if (rec.rdi_token == 0) {
        rec.rdi_token = ++last_token_;
        schedule_rdi_resume(vc, rec.rdi_until, rec.rdi_token);
        notify_defect(vc, Defect::kRdi, true);
      }
      break;
    }
    case atm::OamFunction::kContinuityCheck:
      // The heartbeat itself carries no payload semantics: its arrival
      // already reset the LOC clock through on_activity.
      cc_received_.add();
      break;
  }
}

void Nic::on_link_state(bool down) {
  if (down == los_) return;
  los_ = down;
  ++ais_epoch_;
  if (down) {
    los_events_.add();
    if (config_.ais_period > 0) insert_ais();
  }
}

void Nic::insert_ais() {
  if (!los_) return;
  // The PHY substitutes AIS cells for the missing signal: one per open
  // VC, fed into the NIC's own receive stream so the standard OAM path
  // (engine cost, CRC-10 check, on_oam dispatch) sees the alarm.
  for (const atm::VcId vc : rx_->open_vc_ids()) {
    atm::OamCell oam;
    oam.function = atm::OamFunction::kAis;
    ais_inserted_.add();
    const atm::Cell c = oam.to_cell(vc);
    net::WireCell wire;
    wire.bytes = c.serialize(atm::HeaderFormat::kUni);
    wire.meta = c.meta;
    rx_->receive_wire(wire);
  }
  const std::uint64_t epoch = ais_epoch_;
  sim_->after(config_.ais_period, [this, epoch] {
    if (epoch == ais_epoch_) insert_ais();
  }, sim::Layer::kOam);
}

void Nic::schedule_rdi_resume(atm::VcId vc, sim::Time until,
                              std::uint64_t token) {
  sim_->at(until, [this, vc, token] {
    VcRecord* rec = armed(vc, &VcRecord::rdi_token, token);
    if (rec == nullptr) return;  // cleared meanwhile (e.g. VC closed)
    if (sim_->now() >= rec->rdi_until) {
      // No RDI for a full hold interval: the defect cleared.
      rec->rdi_token = 0;
      tx_->resume_vc(vc);
      notify_defect(vc, Defect::kRdi, false);
    } else {
      // The hold was extended by a newer RDI.
      schedule_rdi_resume(vc, rec->rdi_until, token);
    }
  }, sim::Layer::kOam);
}

void Nic::attach_tx(net::Link& link) {
  tx_->framer().set_sink([&link](const atm::Cell& cell) { link.send(cell); });
  tx_->start();
}

void Nic::attach_rx(net::Link& link) {
  link.set_sink([this](const net::WireCell& w) { rx_->receive_wire(w); });
  link.add_state_observer([this](bool down) { on_link_state(down); });
}

}  // namespace hni::nic
