// Endpoint call control: the user side of the signalling protocol.
//
// One CallControl per station. It owns the station's signalling VC
// (VPI 0 / VCI 5): outgoing calls are placed with place_call(), incoming
// SETUPs are offered to the application's incoming-call handler, and on
// CONNECT both ends open the network-assigned VC (and install a GCRA
// shaper when the call carries a traffic contract). Release can be
// initiated from either end.
//
// Call states follow the usual half of Q.2931:
//
//   idle -> calling  (SETUP sent)    -> connected (CONNECT received)
//   idle -> incoming (SETUP received)-> connected (CONNECT sent)
//   connected -> releasing (RELEASE sent) -> idle (RELEASE COMPLETE)
//   connected -> idle (RELEASE received; RELEASE COMPLETE sent)
//
// There is no SSCOP assured-mode layer underneath, so the signalling
// channel loses messages whenever the substrate does. Survivability
// comes from Q.2931-style protocol timers instead:
//
//   T303  SETUP sent, no answer     -> retransmit SETUP (bounded)
//   T310  awaiting CONNECT overall  -> fail the call, RELEASE upstream
//   T308  RELEASE sent, no complete -> retransmit RELEASE (bounded),
//                                      then force-clear locally
//
// plus idempotent handling of the duplicates retransmission creates: a
// re-received SETUP re-answers CONNECT instead of opening a second VC,
// a RELEASE for an unknown call is still confirmed (the peer may be
// retransmitting after we already cleared), and STATUS/RESTART let the
// network's audit re-synchronize state after losses or agent failure.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "core/audit.hpp"
#include "core/station.hpp"
#include "sig/messages.hpp"
#include "sim/random.hpp"
#include "sim/telemetry/metrics.hpp"
#include "sim/trace.hpp"

namespace hni::sig {

/// Protocol-timer policy. The timer periods (T303, T308, T310 in
/// call_control.cpp) are sized for the simulated UNI: a clean setup
/// round-trip is ~150 us, so retry intervals are a few round-trips and
/// the overall deadline covers every bounded retry.
struct CallControlConfig {
  /// Master switch for all timers (the no-recovery ablation point):
  /// false restores fire-and-forget signalling.
  bool retransmit = true;
  unsigned t303_retries = 4;
  /// Retry-with-backoff for SETUPs the network refuses for lack of
  /// resources (CAC). 0 disables: the refusal fails the call at once.
  /// Each attempt doubles the wait, so capacity freed by a released
  /// call is found without hammering the signalling channel.
  unsigned setup_retry_limit = 0;
  sim::Time setup_retry_backoff = sim::milliseconds(2);
};

/// Fault-injection tap on a signalling sender: every outgoing message
/// passes through apply(), which can drop, duplicate or delay it —
/// deterministic one-shots for targeted tests, a seeded drop rate for
/// chaos/bench runs. The default tap forwards everything untouched.
class MessageTap {
 public:
  using SendFn = std::function<void(const Message&)>;

  MessageTap(sim::Simulator& sim, std::uint64_t seed) : sim_(sim), rng_(seed) {}

  /// Bernoulli loss applied to every message (the chaos/bench knob).
  void set_drop_rate(double p) { drop_rate_ = p; }

  /// One-shot faults, consumed in order by subsequent sends.
  void drop_next(unsigned n = 1) { drop_next_ += n; }
  void duplicate_next(unsigned n = 1) { duplicate_next_ += n; }
  void delay_next(unsigned n, sim::Time by) {
    delay_next_ += n;
    delay_by_ = by;
  }

  void apply(const Message& m, const SendFn& forward) {
    if (drop_next_ > 0) {
      --drop_next_;
      dropped_.add();
      return;
    }
    if (drop_rate_ > 0.0 && rng_.chance(drop_rate_)) {
      dropped_.add();
      return;
    }
    if (duplicate_next_ > 0) {
      --duplicate_next_;
      duplicated_.add();
      forwarded_.add();
      forward(m);
      forward(m);
      return;
    }
    if (delay_next_ > 0) {
      --delay_next_;
      delayed_.add();
      sim_.after(delay_by_, [m, forward] { forward(m); }, sim::Layer::kSig);
      return;
    }
    forwarded_.add();
    forward(m);
  }

  std::uint64_t dropped() const { return dropped_.value(); }
  std::uint64_t duplicated() const { return duplicated_.value(); }
  std::uint64_t delayed() const { return delayed_.value(); }
  std::uint64_t forwarded() const { return forwarded_.value(); }

  void register_metrics(const sim::MetricScope& scope) const {
    scope.expose("dropped", dropped_);
    scope.expose("duplicated", duplicated_);
    scope.expose("delayed", delayed_);
    scope.expose("forwarded", forwarded_);
  }

 private:
  sim::Simulator& sim_;
  sim::Rng rng_;
  double drop_rate_ = 0.0;
  unsigned drop_next_ = 0;
  unsigned duplicate_next_ = 0;
  unsigned delay_next_ = 0;
  sim::Time delay_by_ = 0;
  sim::Counter dropped_;
  sim::Counter duplicated_;
  sim::Counter delayed_;
  sim::Counter forwarded_;
};

/// The SETUP traffic descriptor. A PCR alone is a CBR-style contract
/// (GCRA policing and shaping at the peak rate). Adding an SCR makes it
/// a VBR contract — the network installs a two-rate trTCM meter
/// (CIR = SCR, PIR = PCR) instead of the single-rate policer. `weight`
/// sets the VC's DWRR share at switch output queues, and `abr` opts the
/// VC into the ERICA explicit-rate loop.
struct TrafficDescriptor {
  double pcr_cells_per_second = 0.0;  // 0 = best effort
  double scr_cells_per_second = 0.0;  // 0 = single-rate (no meter)
  std::uint16_t weight = 1;
  bool abr = false;
};

class CallControl {
 public:
  struct CallInfo {
    std::uint32_t call_id = 0;
    std::uint16_t peer = 0;       // the other party's address
    atm::VcId vc{};               // network-assigned data VC
    aal::AalType aal = aal::AalType::kAal5;
    double pcr_cells_per_second = 0.0;
    double scr_cells_per_second = 0.0;
    std::uint16_t weight = 1;
    bool abr = false;
  };

  using ConnectedFn = std::function<void(const CallInfo&)>;
  using FailedFn = std::function<void(std::uint32_t call_id, Cause cause)>;
  using ReleasedFn = std::function<void(const CallInfo&, Cause cause)>;
  /// Offered an incoming call; return true to accept.
  using IncomingFn = std::function<bool(const CallInfo&)>;

  CallControl(core::Station& station, std::uint16_t my_party,
              CallControlConfig config = {}, sim::Tracer* tracer = nullptr,
              std::optional<sim::MetricScope> metrics = std::nullopt,
              std::uint64_t tap_seed = 1);

  std::uint16_t party() const { return party_; }

  /// Places a call; returns the call reference. `on_connected` fires
  /// with the assigned VC; `on_failed` on rejection/failure.
  std::uint32_t place_call(std::uint16_t called, aal::AalType aal,
                           double pcr_cells_per_second,
                           ConnectedFn on_connected,
                           FailedFn on_failed = {});

  /// Full-descriptor overload: carries SCR, weight and the ABR flag
  /// through SETUP (the pcr-only signature above delegates here).
  std::uint32_t place_call(std::uint16_t called, aal::AalType aal,
                           const TrafficDescriptor& traffic,
                           ConnectedFn on_connected,
                           FailedFn on_failed = {});

  /// Application policy + notification hooks for the callee side.
  void set_incoming(IncomingFn accept, ConnectedFn on_connected = {});
  /// Fires whenever an established call ends (either initiator).
  void set_released(ReleasedFn on_released) {
    on_released_ = std::move(on_released);
  }

  /// Initiates teardown of an established call.
  void release(std::uint32_t call_id, Cause cause = Cause::kNormal);

  /// This endpoint's view of a call (kNull when unknown) — what a
  /// STATUS reply reports.
  CallState state_of(std::uint32_t call_id) const;

  /// The outgoing-message fault tap (chaos/bench injection point).
  MessageTap& tap() { return tap_; }

  std::size_t active_calls() const { return calls_.size(); }
  /// Calls with an open data VC (connected or releasing).
  std::size_t open_data_vcs() const;
  std::uint64_t calls_placed() const { return placed_.value(); }
  std::uint64_t calls_connected() const { return connected_.value(); }
  std::uint64_t calls_failed() const { return failed_.value(); }
  /// Messages retransmitted by T303/T308.
  std::uint64_t retransmits() const { return retransmits_.value(); }
  /// SETUPs re-sent after a CAC resource-unavailable refusal.
  std::uint64_t setup_backoff_retries() const { return backoffs_.value(); }
  /// Timer expiries observed (every T303/T308/T310 firing that acted).
  std::uint64_t timer_expiries() const { return timer_expiries_.value(); }
  /// Calls cleared by recovery (T308 force-clear, STATUS resync,
  /// RESTART, stale-incarnation replacement) rather than by the normal
  /// release handshake.
  std::uint64_t calls_reclaimed() const { return reclaimed_.value(); }
  /// Signalling frames rejected by the decoder.
  std::uint64_t malformed_frames() const { return malformed_.value(); }
  /// NIC-level defect alarms (AIS / loss of continuity on a data VC)
  /// reported to the network as STATUS cause 27.
  std::uint64_t defect_reports() const { return defect_reports_.value(); }

  /// Cross-checks this endpoint's call state against its NIC's VC
  /// table: the signalling VC plus one open VC per data call, no more.
  void audit_invariants(core::InvariantAuditor& auditor);

 private:
  struct Call {
    CallState state = CallState::kCalling;
    CallInfo info;
    ConnectedFn on_connected;
    FailedFn on_failed;
    bool vc_open = false;
    Message pending;                  // message under timer supervision
    unsigned retries = 0;
    unsigned setup_attempts = 0;      // CAC-refusal backoff rounds used
    sim::EventHandle retry_timer;     // T303 (calling) / T308 (releasing)
    sim::EventHandle deadline_timer;  // T310
    sim::EventHandle backoff_timer;   // CAC-refusal retry wait
  };

  void on_signaling_frame(aal::Bytes sdu);
  void handle_setup(const Message& m);
  void handle_connect(const Message& m);
  void handle_release(const Message& m);
  void handle_release_complete(const Message& m);
  void handle_status_enquiry(const Message& m);
  void handle_status(const Message& m);
  void handle_restart(const Message& m);
  void send(const Message& m);
  void open_data_vc(const CallInfo& info);
  void close_data_vc(const CallInfo& info);
  void arm_retry(std::uint32_t call_id, unsigned timer_no);
  void on_retry_timer(std::uint32_t call_id, unsigned timer_no);
  void retry_setup(std::uint32_t call_id);
  void on_t310(std::uint32_t call_id);
  void cancel_timers(Call& call);
  /// Removes the call and undoes its local state (timers, VC); invoked
  /// by every recovery path. Does not notify — callers do.
  Call clear_call(std::unordered_map<std::uint32_t, Call>::iterator it);
  void count_failure(Cause cause);
  void trace(sim::TraceEventId id, std::uint32_t a, std::uint32_t b,
             std::uint64_t seq);

  core::Station& station_;
  std::uint16_t party_;
  CallControlConfig config_;
  sim::Tracer* tracer_;
  std::uint16_t source_ = 0;
  std::optional<sim::MetricScope> metrics_;
  MessageTap tap_;
  std::uint32_t next_ref_ = 1;
  std::unordered_map<std::uint32_t, Call> calls_;
  IncomingFn incoming_;
  ConnectedFn incoming_connected_;
  ReleasedFn on_released_;
  sim::Counter placed_;
  sim::Counter connected_;
  sim::Counter failed_;
  sim::Counter retransmits_;
  sim::Counter backoffs_;
  sim::Counter timer_expiries_;
  sim::Counter reclaimed_;
  sim::Counter malformed_;
  sim::Counter defect_reports_;
};

}  // namespace hni::sig
