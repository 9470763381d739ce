#include "sim/simulator.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace hni::sim {

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "framer", "link", "switch", "tx_engine", "rx_engine",
      "bus",    "host", "sig",    "oam",       "timer"};
  return kNames[static_cast<std::size_t>(layer)];
}

void Simulator::throw_past() {
  throw std::logic_error("Simulator::at: scheduling into the past");
}

detail::EventSlot* Simulator::grow_slots() {
  if (chunk_fill_ == kChunkSize) {
    chunks_.push_back(std::make_unique<detail::EventSlot[]>(kChunkSize));
    chunk_fill_ = 0;
  }
  return &chunks_.back()[chunk_fill_++];
}

void Simulator::heap_pop_root() {
  const std::size_t n = heap_.size() - 1;
  if (n == 0) {  // drained: skip the (stack-bounced) 32-byte copy
    heap_.pop_back();
    return;
  }
  const Node last = heap_.back();
  heap_.pop_back();
  // Percolate the hole down, then drop `last` in.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

bool Simulator::skim_stale() {
  while (!heap_.empty()) {
    const Node& root = heap_.front();
    if (root.slot->gen == root.gen) return true;
    heap_pop_root();
    --stale_;
  }
  return false;
}

void Simulator::fire_root() {
  detail::EventSlot* slot = heap_.front().slot;
  const Time when = heap_.front().when;
  assert(when >= now_);
  // Move the callable out and release the slot *before* invoking: the
  // handle dies (gen bump) before user code runs, a cancel() of the
  // firing event from inside its own callback is a no-op, and a
  // self-rescheduling callback immediately reuses this same — cache-
  // hot — slot from the freelist head.
  Action action = std::move(slot->action);  // leaves the slot empty
  slot->gen++;
  slot->next_free = free_head_;
  free_head_ = slot;
  heap_pop_root();
  now_ = when;
  ++fired_;
  ++census_[slot->layer];
  action();
}

bool Simulator::step() {
  if (!skim_stale()) return false;
  fire_root();
  return true;
}

std::uint64_t Simulator::run() {
  // Fused skim + fire: one root load, one slot dereference per event.
  // See fire_root() for the generation / freelist ordering commentary.
  std::uint64_t n = 0;
  while (!heap_.empty()) {
    // Scalar field loads: copying the whole 32-byte Node makes the
    // compiler bounce it through a stack slot on the critical path.
    detail::EventSlot* slot = heap_.front().slot;
    const Time when = heap_.front().when;
    if (slot->gen != heap_.front().gen) {  // cancelled: drop the node
      heap_pop_root();
      --stale_;
      continue;
    }
    assert(when >= now_);
    Action action = std::move(slot->action);
    slot->gen++;
    slot->next_free = free_head_;
    free_head_ = slot;
    heap_pop_root();
    now_ = when;
    ++fired_;
    ++census_[slot->layer];
    action();
    ++n;
  }
  return n;
}

std::uint64_t Simulator::run_until(Time deadline) {
  std::uint64_t n = 0;
  while (!heap_.empty()) {
    detail::EventSlot* slot = heap_.front().slot;
    const Time when = heap_.front().when;
    if (slot->gen != heap_.front().gen) {
      heap_pop_root();
      --stale_;
      continue;
    }
    if (when > deadline) {
      now_ = deadline;
      return n;
    }
    assert(when >= now_);
    Action action = std::move(slot->action);
    slot->gen++;
    slot->next_free = free_head_;
    free_head_ = slot;
    heap_pop_root();
    now_ = when;
    ++fired_;
    ++census_[slot->layer];
    action();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace hni::sim
