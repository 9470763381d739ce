// Discrete-event simulation kernel.
//
// A Simulator owns a time-ordered queue of events; each event is a
// callable fired at a scheduled instant. Ties are broken by insertion
// order (FIFO among simultaneous events), which makes component
// interactions deterministic and keeps every experiment reproducible.
//
// Components hold a reference to the Simulator and call `at()`/`after()`
// to schedule work. The kernel is deliberately minimal: no processes, no
// channels — those live in the domain libraries built on top.
//
// Implementation: a cache-friendly implicit 4-ary min-heap of 32-byte
// nodes (when, seq, slot*, gen) ordered by (when, seq), over a chunked
// freelist arena of generation-tagged slots holding the callables
// (sim::Action, small-buffer-optimized). Chunking keeps slot addresses
// stable, so nodes and handles point at slots directly — no index
// arithmetic on the hot path. The steady-state cell path — schedule,
// fire, reschedule — touches no allocator once the arena and heap are
// warm, and
// cancellation is O(1): bump the slot's generation and let the stale
// heap node fall out lazily at pop time. The (time, insertion-seq)
// ordering contract is identical to the original std::priority_queue
// kernel, so same-seed runs stay byte-identical.
//
// Event census: every schedule call names the layer the event belongs
// to (framer, link, switch, ...; kTimer when untagged). The tag rides
// in the event's arena slot, and firing bumps that layer's counter, so
// events_fired() splits exactly and deterministically by layer.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/action.hpp"
#include "sim/time.hpp"

namespace hni::sim {

/// The layer an event belongs to, for the kernel's event census.
enum class Layer : std::uint8_t {
  kFramer,    // TX framer slots and cell serialization
  kLink,      // wire delivery
  kSwitch,    // switch output-port service
  kTxEngine,  // NIC segmentation engine, TX shaper
  kRxEngine,  // NIC reassembly engine
  kBus,       // host bus and DMA
  kHost,      // host CPU, traffic sources, interrupts
  kSig,       // signalling: call timers, protection, routing audit
  kOam,       // continuity checks, AIS/RDI generation
  kTimer,     // watchdogs, sweeps, faults, scenario timers, untagged
};
inline constexpr std::size_t kLayerCount = 10;
static_assert(static_cast<std::size_t>(Layer::kTimer) + 1 == kLayerCount);

/// Short lowercase name of a layer ("framer", "tx_engine", ...).
const char* layer_name(Layer layer);

/// Events fired per layer, indexed by Layer.
using Census = std::array<std::uint64_t, kLayerCount>;

namespace detail {

// Arena slot. `gen` increments whenever the slot empties (fire or
// cancel), invalidating outstanding handles and stale heap nodes.
// A handle could alias only after 2^32 reuses of one slot — beyond
// any simulation's event count between cancel and fire.
struct EventSlot {
  Action action;
  std::uint32_t gen = 0;
  std::uint8_t layer = 0;  // census tag, set at schedule time
  EventSlot* next_free = nullptr;
};

}  // namespace detail

/// Handle to a scheduled event; allows cancellation.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if this handle refers to an event (which may have fired).
  bool valid() const { return slot_ != nullptr; }

 private:
  friend class Simulator;
  EventHandle(detail::EventSlot* slot, std::uint32_t gen)
      : slot_(slot), gen_(gen) {}
  // Slots live for the Simulator's lifetime, so the pointer stays
  // dereferenceable; the generation decides whether it still refers
  // to a pending event.
  detail::EventSlot* slot_ = nullptr;
  std::uint32_t gen_ = 0;
};

/// The event-driven simulation engine.
class Simulator {
 public:
  using Action = sim::Action;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules a callable at absolute time `when` (must be >= now()),
  /// counted under `layer` in the census when it fires.
  /// The fast path: the callable is constructed directly into its
  /// arena slot, no intermediate Action.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Action>)
  EventHandle at(Time when, F&& f, Layer layer = Layer::kTimer) {
    detail::EventSlot* s = prepare(when);
    s->action.emplace(std::forward<F>(f));
    return commit(when, next_seq_++, s, layer);
  }

  /// Schedules an already-wrapped Action.
  EventHandle at(Time when, Action action, Layer layer = Layer::kTimer) {
    detail::EventSlot* s = prepare(when);
    s->action = std::move(action);
    return commit(when, next_seq_++, s, layer);
  }

  /// Takes the next insertion sequence number without scheduling
  /// anything. An event later armed with at_reserved() under this
  /// number orders among same-instant events exactly as if at() had
  /// scheduled it at the moment of the reservation: after everything
  /// scheduled before, ahead of everything scheduled since.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedules a callable under a sequence number from reserve_seq().
  /// Each reserved number must be armed at most once, and before the
  /// kernel has fired any event that orders after (when, seq).
  template <typename F>
  EventHandle at_reserved(Time when, std::uint64_t seq, F&& f,
                          Layer layer = Layer::kTimer) {
    detail::EventSlot* s = prepare(when);
    s->action.emplace(std::forward<F>(f));
    return commit(when, seq, s, layer);
  }

  /// Schedules `delay` after the current time.
  template <typename F>
  EventHandle after(Time delay, F&& f, Layer layer = Layer::kTimer) {
    return at(now_ + delay, std::forward<F>(f), layer);
  }

  /// Cancels a pending event in O(1). Cancelling an already-fired or
  /// invalid handle is a harmless no-op. Returns true iff a pending
  /// event was cancelled.
  bool cancel(EventHandle handle) {
    // Generation mismatch means the event already fired or was
    // cancelled (the slot may have been reused since); both no-ops.
    if (handle.slot_ == nullptr || handle.slot_->gen != handle.gen_) {
      return false;
    }
    release_slot(handle.slot_);
    ++stale_;  // its heap node falls out lazily at pop time
    return true;
  }

  /// Runs until the queue is empty. Returns the number of events fired.
  std::uint64_t run();

  /// Runs until the queue is empty or simulated time would exceed
  /// `deadline`; events at exactly `deadline` fire. On return, now() is
  /// min(deadline, time of last event). Returns events fired.
  std::uint64_t run_until(Time deadline);

  /// Fires the single next event, if any. Returns false on empty queue.
  bool step();

  /// Number of events currently pending.
  std::size_t pending() const { return heap_.size() - stale_; }

  /// Total events fired since construction.
  std::uint64_t events_fired() const { return fired_; }

  /// Events fired since construction, per layer; sums to events_fired().
  const Census& census() const { return census_; }

 private:
  // Heap node: everything ordering needs plus the slot — the callable
  // stays put in its slot so sift operations move 32 bytes, not the
  // capture buffer.
  struct Node {
    Time when;
    std::uint64_t seq;        // tie-break: FIFO among equal times
    detail::EventSlot* slot;  // stable address into the chunked arena
    std::uint32_t gen;        // matches the slot's gen while pending
  };

  static bool before(const Node& a, const Node& b) {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

  // at() fast path, split so the callable-emplace sits between them:
  // prepare() validates and picks a slot, commit() pushes the heap
  // node and mints the handle.
  detail::EventSlot* prepare(Time when) {
    if (when < now_) {
      throw_past();  // out-of-line: keeps the hot path branch cheap
    }
    return acquire_slot();
  }
  EventHandle commit(Time when, std::uint64_t seq, detail::EventSlot* s,
                     Layer layer) {
    s->layer = static_cast<std::uint8_t>(layer);
    const std::uint32_t gen = s->gen;
    heap_push(Node{when, seq, s, gen});
    return EventHandle{s, gen};
  }

  detail::EventSlot* acquire_slot() {
    if (free_head_ != nullptr) {
      detail::EventSlot* s = free_head_;
      free_head_ = s->next_free;
      return s;
    }
    return grow_slots();
  }
  void release_slot(detail::EventSlot* s) {
    s->action.reset();
    s->gen++;  // outstanding handles and heap nodes go stale here
    s->next_free = free_head_;
    free_head_ = s;
  }

  void heap_push(const Node& n) {
    std::size_t i = heap_.size();
    heap_.push_back(n);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  [[noreturn]] static void throw_past();
  detail::EventSlot* grow_slots();
  void heap_pop_root();
  bool skim_stale();  // drop cancelled root nodes; false when empty
  void fire_root();

  static constexpr std::uint32_t kChunkSize = 512;  // slots per chunk

  std::vector<Node> heap_;
  // Fixed-size chunks give slots stable addresses: growing the arena
  // mid-callback cannot move live slots, so callables run in place.
  std::vector<std::unique_ptr<detail::EventSlot[]>> chunks_;
  std::uint32_t chunk_fill_ = kChunkSize;  // slots used in chunks_.back()
  detail::EventSlot* free_head_ = nullptr;
  std::size_t stale_ = 0;  // cancelled nodes still in the heap
  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  Census census_{};
};

}  // namespace hni::sim
