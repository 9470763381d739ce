// Bounded cell FIFO with occupancy instrumentation.
//
// The FIFOs decouple the line-rate datapath from the protocol engines:
// the RX FIFO absorbs back-to-back cell arrivals while the reassembly
// engine and the host bus catch up, and its overflow is the interface's
// cell-loss mechanism; the TX FIFO lets the segmentation engine run
// ahead of the framer. Occupancy statistics (time-average, maximum) and
// drop counts are first-class outputs — FIFO sizing is bench F3/A1.
//
// It lives in the ATM layer, beside the framer it feeds: a TX FIFO is
// bound to its atm::TxFramer with TxFramer::bind(), which takes over
// the FIFO's push hook to wake the line.

#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry/metrics.hpp"
#include "sim/trace.hpp"

namespace hni::atm {

// Storage is a preallocated ring over the (bounded) capacity rather
// than a deque: a deque allocates/frees a chunk every few cells as the
// window slides, which would be the last remaining per-cell allocation
// on the steady-state datapath (asserted by kernel_zeroalloc_test).
template <typename T>
class CellFifo {
 public:
  CellFifo(sim::Simulator& sim, std::size_t capacity)
      : sim_(sim), capacity_(capacity), buf_(capacity) {}

  /// Enqueues at the *front* (priority lane for control cells; the
  /// next pop returns it). Same capacity rules as push(), but a full
  /// FIFO counts the loss as a *priority* drop: an AIS/RDI cell
  /// vanishing must stay distinguishable from data loss.
  bool push_front(T item) {
    if (count_ >= capacity_) {
      priority_drops_.add();
      if (tracer_) {
        tracer_->emit({sim_.now(), sim::TraceEventId::kFifoPriorityDrop,
                       trace_source_,
                       static_cast<std::uint32_t>(count_), 0, 0});
      }
      return false;
    }
    pushes_.add();
    head_ = head_ == 0 ? capacity_ - 1 : head_ - 1;
    buf_[head_] = std::move(item);
    ++count_;
    depth_.set(sim_.now(), static_cast<double>(count_));
    if (on_push_) on_push_();
    return true;
  }

  /// Attempts to enqueue; returns false (and counts a drop) when full.
  bool push(T item) {
    if (count_ >= capacity_) {
      drops_.add();
      return false;
    }
    pushes_.add();
    buf_[wrap(head_ + count_)] = std::move(item);
    ++count_;
    depth_.set(sim_.now(), static_cast<double>(count_));
    if (on_push_) on_push_();
    return true;
  }

  /// Removes the oldest element, if any. At most one queued space
  /// waiter is released per pop.
  std::optional<T> pop() {
    if (count_ == 0) return std::nullopt;
    T item = std::move(buf_[head_]);
    head_ = wrap(head_ + 1);
    --count_;
    pops_.add();
    depth_.set(sim_.now(), static_cast<double>(count_));
    if (!waiters_.empty()) {
      sim::Action cb = waiters_.take_front();
      cb();
    }
    return item;
  }

  /// Callback fired on every successful push (consumer wake-up).
  void set_on_push(std::function<void()> cb) { on_push_ = std::move(cb); }

  /// Attaches a tracer: a refused priority-lane push emits
  /// kFifoPriorityDrop tagged with the interned `source`.
  void set_tracer(sim::Tracer* tracer, std::uint16_t source) {
    tracer_ = tracer;
    trace_source_ = source;
  }

  /// One-shot producer backpressure: `cb` fires after a future pop
  /// frees a slot (FIFO order among waiters). Waiters live in their own
  /// small ring: a line-rate producer arms one per cell, so a deque
  /// here would be a per-few-cells chunk allocation.
  void wait_space(sim::Action cb) { waiters_.push_back(std::move(cb)); }

  bool empty() const { return count_ == 0; }
  bool full() const { return count_ >= capacity_; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return capacity_; }

  /// Data cells (push) refused by a full FIFO.
  std::uint64_t drops() const { return drops_.value(); }
  /// Priority-lane cells (push_front: OAM/control) refused by a full
  /// FIFO — counted apart from data loss so alarms cannot vanish
  /// silently into the drop statistics.
  std::uint64_t priority_drops() const { return priority_drops_.value(); }
  /// Cells accepted / removed since construction. The conservation
  /// identity pushes() == pops() + size() is what the invariant auditor
  /// checks (in = out + dropped + resident, with drops counted at the
  /// offered side).
  std::uint64_t pushes() const { return pushes_.value(); }
  std::uint64_t pops() const { return pops_.value(); }
  double mean_depth() const { return depth_.mean(sim_.now()); }
  double max_depth() const { return depth_.max(); }

  /// Surfaces the FIFO's books under `scope` (".pushes", ".drops", …).
  void register_metrics(const sim::MetricScope& scope) const {
    scope.expose("pushes", pushes_);
    scope.expose("pops", pops_);
    scope.expose("drops", drops_);
    scope.expose("priority_drops", priority_drops_);
    scope.gauge("depth", [this] { return static_cast<double>(size()); });
    scope.gauge("depth_mean", [this] { return mean_depth(); });
    scope.gauge("depth_max", [this] { return max_depth(); });
  }

 private:
  std::size_t wrap(std::size_t i) const {
    return i >= capacity_ ? i - capacity_ : i;
  }

  sim::Simulator& sim_;
  std::size_t capacity_;
  std::vector<T> buf_;  // ring: [head_, head_ + count_)
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  sim::Counter drops_;
  sim::Counter priority_drops_;
  sim::Counter pushes_;
  sim::Counter pops_;
  sim::TimeWeightedStat depth_;
  sim::Tracer* tracer_ = nullptr;
  std::uint16_t trace_source_ = 0;
  std::function<void()> on_push_;
  sim::Ring<sim::Action> waiters_;
};

}  // namespace hni::atm
