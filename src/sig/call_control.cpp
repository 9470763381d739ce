#include "sig/call_control.hpp"

#include <algorithm>
#include <set>
#include <vector>

namespace hni::sig {

namespace {
// SETUP retransmit interval.
constexpr sim::Time kT303 = sim::microseconds(600);
// Overall await-CONNECT deadline.
constexpr sim::Time kT310 = sim::milliseconds(8);
// RELEASE retransmit interval and retry bound.
constexpr sim::Time kT308 = sim::microseconds(600);
constexpr unsigned kT308Retries = 4;
}  // namespace

CallControl::CallControl(core::Station& station, std::uint16_t my_party,
                         CallControlConfig config, sim::Tracer* tracer,
                         std::optional<sim::MetricScope> metrics,
                         std::uint64_t tap_seed)
    : station_(station),
      party_(my_party),
      config_(config),
      tracer_(tracer),
      metrics_(std::move(metrics)),
      tap_(station.sim(), tap_seed) {
  if (tracer_) {
    source_ = tracer_->intern("sig.ep" + std::to_string(party_));
  }
  if (metrics_) {
    metrics_->expose("calls_placed", placed_);
    metrics_->expose("calls_connected", connected_);
    metrics_->expose("calls_failed", failed_);
    metrics_->expose("retransmits", retransmits_);
    metrics_->expose("setup_backoff_retries", backoffs_);
    metrics_->expose("timer_expiries", timer_expiries_);
    metrics_->expose("calls_reclaimed", reclaimed_);
    metrics_->expose("malformed_frames", malformed_);
    metrics_->expose("defect_reports", defect_reports_);
    metrics_->gauge("active_calls",
                    [this] { return static_cast<double>(calls_.size()); });
    tap_.register_metrics(metrics_->sub("tap"));
  }
  station_.nic().open_vc(kSignalingVc, aal::AalType::kAal5);
  station_.host().set_vc_handler(
      kSignalingVc, [this](aal::Bytes sdu, const host::RxInfo&) {
        on_signaling_frame(std::move(sdu));
      });
  // Close the fault-management loop: a standing AIS or loss-of-
  // continuity alarm on one of our data VCs is reported to the network
  // as STATUS cause 27 (destination out of order), so the agent can run
  // a protection sweep even when its own trunk observer missed the
  // failure. RDI is the far end echoing *our* report — forwarding it
  // too would double every alarm.
  station_.nic().add_defect_observer(
      [this](atm::VcId vc, nic::Nic::Defect defect, bool active) {
        if (!active || defect == nic::Nic::Defect::kRdi) return;
        for (const auto& [id, call] : calls_) {
          if (!call.vc_open || call.info.vc != vc) continue;
          defect_reports_.add();
          trace(sim::TraceEventId::kSigDefectReport,
                static_cast<std::uint32_t>(defect), vc.vci, id);
          Message m;
          m.type = MessageType::kStatus;
          m.call_id = id;
          m.calling_party = party_;
          m.cause = Cause::kDestinationOutOfOrder;
          m.call_state = state_of(id);
          send(m);
          return;
        }
      });
}

void CallControl::trace(sim::TraceEventId id, std::uint32_t a,
                        std::uint32_t b, std::uint64_t seq) {
  if (tracer_) tracer_->emit({station_.sim().now(), id, source_, a, b, seq});
}

void CallControl::count_failure(Cause cause) {
  failed_.add();
  if (metrics_) {
    metrics_
        ->counter("failed.cause_" +
                  std::to_string(static_cast<unsigned>(cause)))
        .add();
  }
}

std::uint32_t CallControl::place_call(std::uint16_t called,
                                      aal::AalType aal,
                                      double pcr_cells_per_second,
                                      ConnectedFn on_connected,
                                      FailedFn on_failed) {
  TrafficDescriptor traffic;
  traffic.pcr_cells_per_second = pcr_cells_per_second;
  return place_call(called, aal, traffic, std::move(on_connected),
                    std::move(on_failed));
}

std::uint32_t CallControl::place_call(std::uint16_t called,
                                      aal::AalType aal,
                                      const TrafficDescriptor& traffic,
                                      ConnectedFn on_connected,
                                      FailedFn on_failed) {
  // Call references must be network-unique (the agent keys on them);
  // derive from the party address.
  const std::uint32_t ref =
      (static_cast<std::uint32_t>(party_) << 16) | (next_ref_++ & 0xFFFF);
  placed_.add();
  Call call;
  call.state = CallState::kCalling;
  call.info.call_id = ref;
  call.info.peer = called;
  call.info.aal = aal;
  call.info.pcr_cells_per_second = traffic.pcr_cells_per_second;
  call.info.scr_cells_per_second = traffic.scr_cells_per_second;
  call.info.weight = traffic.weight;
  call.info.abr = traffic.abr;
  call.on_connected = std::move(on_connected);
  call.on_failed = std::move(on_failed);

  Message m;
  m.type = MessageType::kSetup;
  m.call_id = ref;
  m.calling_party = party_;
  m.called_party = called;
  m.aal = aal;
  m.pcr_cells_per_second = traffic.pcr_cells_per_second;
  m.scr_cells_per_second = traffic.scr_cells_per_second;
  m.weight = traffic.weight;
  m.abr = traffic.abr;
  call.pending = m;
  calls_.emplace(ref, std::move(call));

  send(m);
  if (config_.retransmit) {
    arm_retry(ref, 303);
    calls_.at(ref).deadline_timer =
        station_.sim().after(kT310, [this, ref] { on_t310(ref); },
                             sim::Layer::kSig);
  }
  return ref;
}

void CallControl::set_incoming(IncomingFn accept, ConnectedFn on_connected) {
  incoming_ = std::move(accept);
  incoming_connected_ = std::move(on_connected);
}

void CallControl::release(std::uint32_t call_id, Cause cause) {
  auto it = calls_.find(call_id);
  if (it == calls_.end() || it->second.state != CallState::kConnected) return;
  Call& call = it->second;
  call.state = CallState::kReleasing;
  call.retries = 0;
  Message m;
  m.type = MessageType::kRelease;
  m.call_id = call_id;
  m.calling_party = party_;
  m.cause = cause;
  call.pending = m;
  send(m);
  if (config_.retransmit) arm_retry(call_id, 308);
}

CallState CallControl::state_of(std::uint32_t call_id) const {
  auto it = calls_.find(call_id);
  return it == calls_.end() ? CallState::kNull : it->second.state;
}

std::size_t CallControl::open_data_vcs() const {
  std::size_t n = 0;
  for (const auto& [id, call] : calls_) {
    if (call.vc_open) ++n;
  }
  return n;
}

void CallControl::send(const Message& m) {
  tap_.apply(m, [this](const Message& mm) {
    station_.host().send(kSignalingVc, aal::AalType::kAal5, mm.encode());
  });
}

void CallControl::open_data_vc(const CallInfo& info) {
  station_.nic().open_vc(info.vc, info.aal);
  // No-op unless the NIC's CC config enables it: the call's data VC
  // gets an OAM heartbeat and a sink-side loss-of-continuity detector.
  station_.nic().start_cc(info.vc);
  if (info.pcr_cells_per_second > 0.0) {
    // Honour the traffic contract at the source: UPC polices it in the
    // network, so shape here and the call is loss-free by construction.
    station_.nic().tx().set_shaper(info.vc, info.pcr_cells_per_second,
                                   sim::microseconds(3));
  }
}

void CallControl::close_data_vc(const CallInfo& info) {
  // A lost RELEASE COMPLETE can leave a call half-closed here while the
  // network has already recycled its VCI to a newer call on this same
  // endpoint. Whichever call clears first must not yank the VC out from
  // under the one still using it.
  for (const auto& [id, call] : calls_) {
    if (call.vc_open && call.info.vc == info.vc) return;
  }
  station_.nic().close_vc(info.vc);
  if (info.pcr_cells_per_second > 0.0) {
    station_.nic().tx().clear_shaper(info.vc);
  }
}

void CallControl::cancel_timers(Call& call) {
  station_.sim().cancel(call.retry_timer);
  station_.sim().cancel(call.deadline_timer);
  station_.sim().cancel(call.backoff_timer);
  call.retry_timer = {};
  call.deadline_timer = {};
  call.backoff_timer = {};
}

CallControl::Call CallControl::clear_call(
    std::unordered_map<std::uint32_t, Call>::iterator it) {
  Call call = std::move(it->second);
  calls_.erase(it);
  cancel_timers(call);
  if (call.vc_open) {
    close_data_vc(call.info);
    call.vc_open = false;
  }
  return call;
}

// --- timers -----------------------------------------------------------

void CallControl::arm_retry(std::uint32_t call_id, unsigned timer_no) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  const sim::Time period = timer_no == 303 ? kT303 : kT308;
  it->second.retry_timer = station_.sim().after(
      period, [this, call_id, timer_no] { on_retry_timer(call_id, timer_no); },
      sim::Layer::kSig);
}

void CallControl::on_retry_timer(std::uint32_t call_id, unsigned timer_no) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  Call& call = it->second;
  // A timer that survived a state transition is stale.
  if ((timer_no == 303 && call.state != CallState::kCalling) ||
      (timer_no == 308 && call.state != CallState::kReleasing)) {
    return;
  }
  timer_expiries_.add();
  trace(sim::TraceEventId::kSigTimerExpiry, timer_no, 0, call_id);
  const unsigned max_retries =
      timer_no == 303 ? config_.t303_retries : kT308Retries;
  if (call.retries < max_retries) {
    ++call.retries;
    retransmits_.add();
    trace(sim::TraceEventId::kSigRetransmit,
          static_cast<std::uint32_t>(call.pending.type), call.retries,
          call_id);
    send(call.pending);
    arm_retry(call_id, timer_no);
    return;
  }
  if (timer_no == 303) {
    // Out of SETUP retransmissions; the T310 deadline decides the
    // call's fate (it may still connect off an earlier copy).
    return;
  }
  // T308 exhausted: the peer/network is unreachable. Force-clear
  // locally; the network's status audit reclaims its side.
  Call dead = clear_call(it);
  reclaimed_.add();
  if (on_released_) on_released_(dead.info, Cause::kRecoveryOnTimerExpiry);
}

void CallControl::on_t310(std::uint32_t call_id) {
  auto it = calls_.find(call_id);
  if (it == calls_.end() || it->second.state != CallState::kCalling) return;
  timer_expiries_.add();
  trace(sim::TraceEventId::kSigTimerExpiry, 310, 0, call_id);
  Call dead = clear_call(it);
  count_failure(Cause::kRecoveryOnTimerExpiry);
  // Best-effort RELEASE so the network clears its half-open record
  // without waiting for the status audit.
  Message m;
  m.type = MessageType::kRelease;
  m.call_id = call_id;
  m.calling_party = party_;
  m.cause = Cause::kRecoveryOnTimerExpiry;
  send(m);
  if (dead.on_failed) dead.on_failed(call_id, Cause::kRecoveryOnTimerExpiry);
}

void CallControl::retry_setup(std::uint32_t call_id) {
  auto it = calls_.find(call_id);
  if (it == calls_.end() || it->second.state != CallState::kCalling) return;
  Call& call = it->second;
  call.backoff_timer = {};
  backoffs_.add();
  trace(sim::TraceEventId::kSigRetransmit,
        static_cast<std::uint32_t>(call.pending.type), call.setup_attempts,
        call_id);
  send(call.pending);
  if (config_.retransmit) {
    arm_retry(call_id, 303);
    call.deadline_timer = station_.sim().after(
        kT310, [this, call_id] { on_t310(call_id); }, sim::Layer::kSig);
  }
}

// --- message handling -------------------------------------------------

void CallControl::on_signaling_frame(aal::Bytes sdu) {
  const DecodeResult r = decode_checked(sdu);
  if (!r.message) {
    malformed_.add();
    trace(sim::TraceEventId::kSigMalformed,
          static_cast<std::uint32_t>(r.error), 0, r.call_id_hint);
    if (r.error == Cause::kMessageTypeNonExistent) {
      // The frame guard held, so the reference is usable: report our
      // state so the sender can resynchronize.
      Message st;
      st.type = MessageType::kStatus;
      st.call_id = r.call_id_hint;
      st.calling_party = party_;
      st.cause = r.error;
      st.call_state = state_of(r.call_id_hint);
      send(st);
    }
    return;
  }
  const Message& m = *r.message;
  switch (m.type) {
    case MessageType::kSetup:
      handle_setup(m);
      break;
    case MessageType::kConnect:
      handle_connect(m);
      break;
    case MessageType::kRelease:
      handle_release(m);
      break;
    case MessageType::kReleaseComplete:
      handle_release_complete(m);
      break;
    case MessageType::kStatusEnquiry:
      handle_status_enquiry(m);
      break;
    case MessageType::kStatus:
      handle_status(m);
      break;
    case MessageType::kRestart:
      handle_restart(m);
      break;
    case MessageType::kRestartAck:
      break;  // network-side message; not ours to act on
  }
}

void CallControl::handle_setup(const Message& m) {
  auto it = calls_.find(m.call_id);
  if (it != calls_.end()) {
    Call& existing = it->second;
    if (existing.info.vc == m.assigned_vc) {
      // Duplicate SETUP: our CONNECT (or the caller's copy of it) was
      // lost. Re-answer; open nothing twice.
      if (existing.state == CallState::kConnected) {
        Message reply;
        reply.type = MessageType::kConnect;
        reply.call_id = m.call_id;
        reply.calling_party = party_;
        reply.assigned_vc = existing.info.vc;
        send(reply);
      }
      return;
    }
    // Same reference, different VC: the network restarted and re-ran
    // the call with a fresh allocation. Our copy is a stale
    // incarnation — clear it silently and treat the SETUP as new.
    Call stale = clear_call(it);
    reclaimed_.add();
    if (on_released_) on_released_(stale.info, Cause::kTemporaryFailure);
  }

  CallInfo info;
  info.call_id = m.call_id;
  info.peer = m.calling_party;
  info.vc = m.assigned_vc;  // the network already allocated our leg
  info.aal = m.aal;
  info.pcr_cells_per_second = m.pcr_cells_per_second;
  info.scr_cells_per_second = m.scr_cells_per_second;
  info.weight = m.weight;
  info.abr = m.abr;

  const bool accept = incoming_ && incoming_(info);
  if (!accept) {
    Message reply;
    reply.type = MessageType::kRelease;
    reply.call_id = m.call_id;
    reply.calling_party = party_;
    reply.cause = Cause::kCallRejected;
    send(reply);
    return;
  }

  Call call;
  call.state = CallState::kConnected;
  call.info = info;
  call.vc_open = true;
  calls_.emplace(m.call_id, std::move(call));
  open_data_vc(info);

  Message reply;
  reply.type = MessageType::kConnect;
  reply.call_id = m.call_id;
  reply.calling_party = party_;
  reply.assigned_vc = info.vc;
  send(reply);
  connected_.add();
  if (incoming_connected_) incoming_connected_(info);
}

void CallControl::handle_connect(const Message& m) {
  auto it = calls_.find(m.call_id);
  // Ignores duplicates too: a retransmission-induced second CONNECT
  // finds the call already kConnected.
  if (it == calls_.end() || it->second.state != CallState::kCalling) return;
  Call& call = it->second;
  cancel_timers(call);
  call.state = CallState::kConnected;
  call.info.vc = m.assigned_vc;
  call.vc_open = true;
  open_data_vc(call.info);
  connected_.add();
  if (call.on_connected) call.on_connected(call.info);
}

void CallControl::handle_release(const Message& m) {
  // Always confirm — even for a call we no longer know. The peer may be
  // retransmitting RELEASE because our earlier RELEASE COMPLETE was
  // lost; silence would run its T308 to exhaustion.
  Message reply;
  reply.type = MessageType::kReleaseComplete;
  reply.call_id = m.call_id;
  reply.calling_party = party_;
  reply.cause = m.cause;
  send(reply);

  auto it = calls_.find(m.call_id);
  if (it == calls_.end()) return;
  const bool was_calling = it->second.state == CallState::kCalling;
  if (was_calling && m.cause == Cause::kResourceUnavailable &&
      it->second.setup_attempts < config_.setup_retry_limit) {
    // CAC refusal: capacity may free as other calls release, so back
    // off and retry instead of failing. The refusal left no state at
    // the network (admission precedes VC allocation), so re-sending
    // the same SETUP under the same reference is clean.
    Call& call = it->second;
    cancel_timers(call);
    call.retries = 0;
    const unsigned attempt = ++call.setup_attempts;
    const sim::Time wait = config_.setup_retry_backoff << (attempt - 1);
    const std::uint32_t id = m.call_id;
    call.backoff_timer =
        station_.sim().after(wait, [this, id] { retry_setup(id); },
                             sim::Layer::kSig);
    return;
  }
  Call call = clear_call(it);
  if (was_calling) {
    // Our SETUP was refused (by the callee or the network).
    count_failure(m.cause);
    if (call.on_failed) call.on_failed(m.call_id, m.cause);
    return;
  }
  // Covers kConnected (peer-initiated teardown) and kReleasing (both
  // ends released at once: treat the crossing RELEASE as completion).
  if (on_released_) on_released_(call.info, m.cause);
}

void CallControl::handle_release_complete(const Message& m) {
  auto it = calls_.find(m.call_id);
  if (it == calls_.end()) return;
  Call call = clear_call(it);
  if (on_released_) on_released_(call.info, m.cause);
}

void CallControl::handle_status_enquiry(const Message& m) {
  Message reply;
  reply.type = MessageType::kStatus;
  reply.call_id = m.call_id;
  reply.calling_party = party_;
  reply.call_state = state_of(m.call_id);
  send(reply);
}

void CallControl::handle_status(const Message& m) {
  // Only a recovery-flavoured STATUS is authoritative: the network
  // telling us it no longer knows a call we think is live. A STATUS
  // answering a malformed frame (cause 97) must not clear anything.
  if (m.call_state != CallState::kNull) return;
  if (m.cause != Cause::kTemporaryFailure &&
      m.cause != Cause::kRecoveryOnTimerExpiry) {
    return;
  }
  auto it = calls_.find(m.call_id);
  if (it == calls_.end()) return;
  const bool was_calling = it->second.state == CallState::kCalling;
  Call dead = clear_call(it);
  reclaimed_.add();
  if (was_calling) {
    count_failure(Cause::kTemporaryFailure);
    if (dead.on_failed) dead.on_failed(m.call_id, Cause::kTemporaryFailure);
  } else if (on_released_) {
    on_released_(dead.info, Cause::kTemporaryFailure);
  }
}

void CallControl::handle_restart(const Message& m) {
  // The network lost its call state: everything we hold is stranded.
  // Clear all calls (deterministic order), then acknowledge — always,
  // even with nothing to clear, or the agent's T316 keeps firing.
  std::vector<std::uint32_t> ids;
  ids.reserve(calls_.size());
  for (const auto& [id, call] : calls_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const std::uint32_t id : ids) {
    auto it = calls_.find(id);
    const bool was_calling = it->second.state == CallState::kCalling;
    Call dead = clear_call(it);
    reclaimed_.add();
    if (was_calling) {
      count_failure(Cause::kTemporaryFailure);
      if (dead.on_failed) dead.on_failed(id, Cause::kTemporaryFailure);
    } else if (on_released_) {
      on_released_(dead.info, Cause::kTemporaryFailure);
    }
  }
  Message ack;
  ack.type = MessageType::kRestartAck;
  ack.call_id = m.call_id;  // echoes the restart instance
  ack.calling_party = party_;
  send(ack);
}

void CallControl::audit_invariants(core::InvariantAuditor& auditor) {
  const std::string who = station_.name() + ": ";
  // Count distinct VCIs, not calls: under loss the network can recycle
  // a VCI to this endpoint while an older half-closed call still holds
  // it, so two calls legitimately alias one NIC table entry.
  std::set<atm::VcId> distinct;
  for (const auto& [id, call] : calls_) {
    if (call.vc_open) distinct.insert(call.info.vc);
  }
  auditor.expect_eq(station_.nic().rx().vcs_open(), 1 + distinct.size(),
                    "sig endpoint vc-table",
                    who + "open RX VCs == signalling + distinct data VCs");
  std::vector<std::uint32_t> ids;
  ids.reserve(calls_.size());
  for (const auto& [id, call] : calls_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const std::uint32_t id : ids) {
    const Call& call = calls_.at(id);
    if (!call.vc_open) continue;
    auditor.expect_eq(station_.nic().rx().vc_open(call.info.vc) ? 1 : 0, 1,
                      "sig endpoint vc open",
                      who + "call " + std::to_string(id) +
                          " data VC missing from NIC table");
  }
}

}  // namespace hni::sig
