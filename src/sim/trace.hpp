// Lightweight event tracing.
//
// Components emit typed, fixed-size trace events through a shared
// Tracer; sinks decide what to do with them (collect into a ring,
// format and print, count). Tracing is off by default and costs one
// branch per emit when disabled.
//
// The hot path is allocation-free by construction: a TraceEvent is a
// POD (enum id + numeric payload), the ring sink writes into
// preallocated storage, and human-readable text is produced lazily by
// Tracer::format() only when somebody asks. Components never build
// strings at the emit site.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace hni::sim {

/// What happened. Wire events carry the cell's seq and VC in the
/// payload words; state events use them as the id demands.
enum class TraceEventId : std::uint16_t {
  kLinkCellSent,         // a = vpi, b = vci, seq
  kLinkCellCorrupted,    // a = vpi, b = vci, seq
  kLinkCellLost,         // seq
  kLinkCellDroppedDown,  // seq
  kLinkUp,
  kLinkDown,
  kFifoPriorityDrop,     // a = fifo occupancy at the drop
  kSigRetransmit,        // a = message type, b = retry #, seq = call id
  kSigTimerExpiry,       // a = timer number (303/308/310/316), seq = call id
  kSigVcReclaimed,       // a = port, b = vci, seq = call id
  kSigRestart,           // a = port, b = attempt #
  kSigMalformed,         // a = cause code, seq = call id hint
  kSigCacRefusal,        // a = caller port, b = callee port, seq = call id
  kSwitchEfciMark,       // a = out port, b = vc label, seq
  kSwitchWredDrop,       // a = out port, b = 1 if CLP-tagged, seq
  kSwitchErStamp,        // a = in port, b = granted ER (cells/s), seq
  kOamCc,                // a = vc label, b = 1 declare / 0 clear (CC loss)
  kSwitchAisInsert,      // a = in port, b = out vc label, seq
  kSigReroute,           // a = 1 reroute / 0 revert, b = trunk id, seq = call
  kSigDefectReport,      // a = defect (0 LOC/1 AIS), b = vci, seq = call id
  kUser,                 // free for tests/tools; payload uninterpreted
};

/// One trace event: when, which component (interned id), what, and a
/// small numeric payload whose meaning depends on the event id.
struct TraceEvent {
  Time when = 0;
  TraceEventId id = TraceEventId::kUser;
  std::uint16_t source = 0;  // from Tracer::intern()
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t seq = 0;
};

/// Fixed-capacity ring of the most recent events. push() never
/// allocates after construction.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) : buf_(capacity) {}

  void push(const TraceEvent& ev) {
    buf_[head_] = ev;
    head_ = (head_ + 1) % buf_.size();
    ++total_;
  }

  /// Events currently retained (<= capacity).
  std::size_t size() const {
    return total_ < buf_.size() ? static_cast<std::size_t>(total_)
                                : buf_.size();
  }
  std::size_t capacity() const { return buf_.size(); }
  /// Events ever pushed (overwritten ones included).
  std::uint64_t total() const { return total_; }

  /// Visits retained events oldest-first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = size();
    std::size_t idx = total_ < buf_.size() ? 0 : head_;
    for (std::size_t i = 0; i < n; ++i) {
      fn(buf_[idx]);
      idx = (idx + 1) % buf_.size();
    }
  }

 private:
  std::vector<TraceEvent> buf_;
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
};

/// Fan-out trace hub. Thread-unsafe by design (the kernel is
/// single-threaded).
class Tracer {
 public:
  using Sink = std::function<void(const TraceEvent&)>;

  /// Registers a component name; the returned id goes into
  /// TraceEvent::source. Cold path (at attach time, not per event).
  std::uint16_t intern(std::string name) {
    sources_.push_back(std::move(name));
    return static_cast<std::uint16_t>(sources_.size() - 1);
  }

  const std::string& source_name(std::uint16_t id) const {
    static const std::string unknown = "?";
    return id < sources_.size() ? sources_[id] : unknown;
  }

  /// Adds a callback sink; all future events are delivered to it.
  void add_sink(Sink sink) {
    sinks_.push_back(std::move(sink));
    armed_ = true;
  }

  /// Enables (or returns) the ring sink. Events are recorded into the
  /// ring with no per-event allocation.
  TraceRing& ring(std::size_t capacity = 4096) {
    if (!ring_) {
      ring_ = std::make_unique<TraceRing>(capacity);
      armed_ = true;
    }
    return *ring_;
  }

  /// Convenience sink that appends events to `out`.
  void collect_into(std::vector<TraceEvent>& out) {
    add_sink([&out](const TraceEvent& ev) { out.push_back(ev); });
  }

  bool enabled() const { return armed_; }

  /// Hot path: one branch when disabled, zero allocations always.
  void emit(const TraceEvent& ev) {
    if (!armed_) return;
    if (ring_) ring_->push(ev);
    for (auto& sink : sinks_) sink(ev);
  }

  /// Renders an event as the old human-readable line, e.g.
  /// "link0: cell seq=12 vc=0/31 LOST". Lazy — allocation happens here,
  /// never at the emit site.
  std::string format(const TraceEvent& ev) const;

 private:
  bool armed_ = false;
  std::vector<Sink> sinks_;
  std::unique_ptr<TraceRing> ring_;
  std::vector<std::string> sources_;
};

}  // namespace hni::sim
