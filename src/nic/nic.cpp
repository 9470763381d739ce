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
                                 config_.rx);
  rx_->set_oam_handler(
      [this](atm::VcId vc, const atm::OamCell& oam) { on_oam(vc, oam); });
  rx_->set_rm_handler(
      [this](atm::VcId vc, const atm::Cell& c) { on_rm(vc, c); });
  rx_->set_efci_observer([this](atm::VcId vc) { on_efci(vc); });
  rx_->set_activity_observer([this](atm::VcId vc) { on_activity(vc); });
}

namespace {
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
  const CongestionControlConfig& cc = config_.congestion;
  if (!cc.enabled) return;
  auto [st, inserted] = congestion_.try_emplace(atm::vc_label(vc));
  const sim::Time now = sim_->now();
  if (inserted || now - st->window_start > cc.window) {
    // A stale window's marks do not accumulate: sustained congestion,
    // not a lone straggler cell, is what triggers feedback.
    st->window_start = now;
    st->marks = 0;
  }
  ++st->marks;
  if (st->marks < cc.marks_per_rm) return;
  if (st->rm_ever_sent && now - st->last_rm_sent < cc.rm_min_gap) return;
  st->marks = 0;
  st->window_start = now;
  st->rm_ever_sent = true;
  st->last_rm_sent = now;
  ++rm_sent_;
  // Backward RM on the same VC: the network's reverse route carries it
  // to the source, whose RX path hands it to on_rm there.
  tx_->inject_cell(make_rm_cell(vc, true));
}

void Nic::on_rm(atm::VcId vc, const atm::Cell& cell) {
  ++rm_received_;
  const CongestionControlConfig& cc = config_.congestion;
  if (!cc.enabled) return;
  if (!atm::rm_is_protocol(cell.payload.data())) return;
  // Contracted VCs are not throttled: their PCR is an admission-time
  // commitment (CAC already sized the network for it); the elastic
  // best-effort traffic is what backs off.
  if (tx_->has_contract(vc)) return;

  const std::uint32_t er = atm::rm_explicit_rate(cell.payload.data());
  if (cc.explicit_rate && er != atm::kRmErUnlimited) {
    // ERICA: jump the shaper straight to the tightest grant any switch
    // on the path stamped — no blind decrease, no hunting. The grant is
    // the path minimum already, so each RM cell is authoritative.
    auto [st, inserted] = congestion_.try_emplace(atm::vc_label(vc));
    const double line = config_.line.cells_per_second();
    const double factor = std::clamp(static_cast<double>(er) / line,
                                     cc.min_rate_factor, 1.0);
    if (factor < 1.0) st->last_congestion = sim_->now();
    if (factor < st->rate_factor) ++throttle_events_;
    if (factor != st->rate_factor) {
      st->rate_factor = factor;
      tx_->set_rate_factor(vc, factor);
      if (congestion_handler_) congestion_handler_(vc, factor);
    }
    if (factor < 1.0 && !st->recovery_armed) {
      st->recovery_armed = true;
      schedule_recovery(vc);
    }
    return;
  }

  if ((atm::rm_flags(cell.payload.data()) & atm::kRmFlagCi) == 0) return;
  auto [st, inserted] = congestion_.try_emplace(atm::vc_label(vc));
  st->last_congestion = sim_->now();
  const double next =
      std::max(cc.min_rate_factor, st->rate_factor * cc.decrease);
  if (next < st->rate_factor) {
    st->rate_factor = next;
    ++throttle_events_;
    tx_->set_rate_factor(vc, next);
    if (congestion_handler_) congestion_handler_(vc, next);
  }
  if (!st->recovery_armed) {
    st->recovery_armed = true;
    schedule_recovery(vc);
  }
}

void Nic::schedule_recovery(atm::VcId vc) {
  sim_->after(config_.congestion.recovery_period, [this, vc] {
    CongestionVc* st = congestion_.find(atm::vc_label(vc)).value;
    if (st == nullptr) return;  // VC closed meanwhile
    const CongestionControlConfig& cc = config_.congestion;
    if (sim_->now() - st->last_congestion < cc.recovery_period) {
      // Congestion refreshed the quiet timer: try again later.
      schedule_recovery(vc);
      return;
    }
    if (st->rate_factor >= 1.0) {
      st->recovery_armed = false;
      return;
    }
    st->rate_factor = std::min(1.0, st->rate_factor * cc.increase);
    ++recoveries_;
    tx_->set_rate_factor(vc, st->rate_factor);
    if (congestion_handler_) congestion_handler_(vc, st->rate_factor);
    if (st->rate_factor >= 1.0) {
      st->recovery_armed = false;
      return;
    }
    schedule_recovery(vc);
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

void Nic::start_cc(atm::VcId vc) {
  if (!config_.cc.enabled) return;
  auto [st, inserted] = cc_.try_emplace(atm::vc_label(vc));
  st->vc = vc;
  st->last_arrival = sim_->now();
  const std::uint64_t epoch = ++st->epoch;  // kills any stale timer
  sim_->after(config_.cc.period, [this, vc, epoch] { cc_tick(vc, epoch); },
              sim::Layer::kOam);
}

void Nic::stop_cc(atm::VcId vc) {
  CcVc* st = cc_.find(atm::vc_label(vc)).value;
  if (st == nullptr) return;
  // A standing alarm dies with the monitoring, through the same books
  // and observers a live clear would use — nothing stays declared on a
  // connection that no longer exists.
  if (st->loc) {
    ++cc_cleared_;
    trace_cc(vc, false);
    notify_defect(vc, Defect::kLoc, false);
  }
  if (st->ais_standing) notify_defect(vc, Defect::kAis, false);
  cc_.erase(atm::vc_label(vc));
}

void Nic::on_activity(atm::VcId vc) {
  CcVc* st = cc_.find(atm::vc_label(vc)).value;
  if (st == nullptr) return;
  st->last_arrival = sim_->now();
  if (st->loc) {
    // Continuity proved again: clear the alarm on the first arrival.
    st->loc = false;
    ++cc_cleared_;
    trace_cc(vc, false);
    notify_defect(vc, Defect::kLoc, false);
  }
}

void Nic::cc_tick(atm::VcId vc, std::uint64_t epoch) {
  CcVc* st = cc_.find(atm::vc_label(vc)).value;
  if (st == nullptr || st->epoch != epoch) return;
  const sim::Time now = sim_->now();
  // Source role: the heartbeat that keeps the far sink's LOC clock
  // reset even when the application has nothing to say.
  atm::OamCell oam;
  oam.function = atm::OamFunction::kContinuityCheck;
  ++cc_sent_;
  tx_->inject_cell(oam.to_cell(vc));
  // AIS hold expiry: indications stopped arriving, the alarm clears.
  if (st->ais_standing && now >= st->ais_until) {
    st->ais_standing = false;
    notify_defect(vc, Defect::kAis, false);
  }
  // Sink role: declare LOC once the silence crosses the threshold —
  // unless AIS stands, which already names the failure hop-by-hop.
  const auto threshold = static_cast<sim::Time>(
      static_cast<double>(config_.cc.period) * config_.cc.loss_multiplier);
  if (!st->loc && !st->ais_standing && now - st->last_arrival > threshold) {
    st->loc = true;
    ++cc_declared_;
    trace_cc(vc, true);
    notify_defect(vc, Defect::kLoc, true);
  }
  sim_->after(config_.cc.period, [this, vc, epoch] { cc_tick(vc, epoch); },
              sim::Layer::kOam);
}

void Nic::close_vc(atm::VcId vc) {
  stop_cc(vc);
  rx_->close_vc(vc);
  open_vcs_.erase(std::remove(open_vcs_.begin(), open_vcs_.end(), vc),
                  open_vcs_.end());
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
  // Clear a standing RDI pause: the hold timer keys off rdi_until_, so
  // without this a VC closed while paused would leave its label in the
  // table and the TX lane frozen if the VC is ever reopened.
  if (rdi_until_.erase(atm::vc_label(vc)) && tx_->vc_paused(vc)) {
    tx_->resume_vc(vc);
  }
  // Congestion state dies with the connection; a lingering throttle
  // must not slow the VC if it is ever reopened.
  if (congestion_.erase(atm::vc_label(vc))) {
    tx_->set_rate_factor(vc, 1.0);
  }
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
      ++loopbacks_completed_;
      if (loopback_handler_) loopback_handler_(vc, oam.tag, rtt);
      break;
    }
    case atm::OamFunction::kAis: {
      // Downstream path declared dead: echo a remote defect indication
      // upstream so the far end stops transmitting into the failure.
      ++ais_received_;
      atm::OamCell rdi;
      rdi.function = atm::OamFunction::kRdi;
      rdi.tag = oam.tag;
      rdi.end_to_end = oam.end_to_end;
      ++rdi_sent_;
      tx_->inject_cell(rdi.to_cell(vc));
      // CC interplay: AIS names the failure already, so it suppresses
      // (and supersedes) the sink's loss-of-continuity alarm while the
      // indications keep arriving.
      if (CcVc* st = cc_.find(atm::vc_label(vc)).value) {
        st->ais_until = sim_->now() + config_.cc.ais_hold;
        if (!st->ais_standing) {
          st->ais_standing = true;
          notify_defect(vc, Defect::kAis, true);
        }
        if (st->loc) {
          st->loc = false;
          ++cc_cleared_;
          trace_cc(vc, false);
          notify_defect(vc, Defect::kLoc, false);
        }
      }
      break;
    }
    case atm::OamFunction::kRdi: {
      // The far end cannot hear us: pause the VC rather than pour
      // cells into a dead path. Each RDI extends the hold; the VC
      // resumes rdi_hold after the indications stop.
      ++rdi_received_;
      auto [deadline, first] = rdi_until_.try_emplace(atm::vc_label(vc));
      *deadline = sim_->now() + config_.rdi_hold;
      tx_->pause_vc(vc);
      if (first) {
        schedule_rdi_resume(vc);
        notify_defect(vc, Defect::kRdi, true);
      }
      break;
    }
    case atm::OamFunction::kContinuityCheck:
      // The heartbeat itself carries no payload semantics: its arrival
      // already reset the LOC clock via the activity observer.
      ++cc_received_;
      break;
  }
}

void Nic::on_link_state(bool down) {
  if (down == los_) return;
  los_ = down;
  ++ais_epoch_;
  if (down) {
    ++los_events_;
    if (config_.ais_period > 0) insert_ais();
  }
}

void Nic::insert_ais() {
  if (!los_) return;
  // The PHY substitutes AIS cells for the missing signal: one per open
  // VC, fed into the NIC's own receive stream so the standard OAM path
  // (engine cost, CRC-10 check, on_oam dispatch) sees the alarm.
  for (atm::VcId vc : open_vcs_) {
    atm::OamCell oam;
    oam.function = atm::OamFunction::kAis;
    ++ais_inserted_;
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

void Nic::schedule_rdi_resume(atm::VcId vc) {
  const sim::Time* until = rdi_until_.find(atm::vc_label(vc)).value;
  if (until == nullptr) return;
  sim_->at(*until, [this, vc] {
    const sim::Time* at = rdi_until_.find(atm::vc_label(vc)).value;
    if (at == nullptr) return;  // cleared meanwhile (e.g. VC closed)
    if (sim_->now() >= *at) {
      // No RDI for a full hold interval: the defect cleared.
      rdi_until_.erase(atm::vc_label(vc));
      tx_->resume_vc(vc);
      notify_defect(vc, Defect::kRdi, false);
    } else {
      schedule_rdi_resume(vc);  // hold was extended by a newer RDI
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
