// Growable FIFO ring over a power-of-two buffer.
//
// The queues on the per-PDU path (an engine's queued work, the bus's
// pending transfers, a host's posted descriptors, a switch's output
// queues) are FIFOs whose depth settles after warm-up. std::deque
// allocates and frees a node every few elements as its window slides;
// this ring only allocates when it has to grow, so a warm queue never
// touches the allocator. Elements need only be move-constructible
// (sim::Action included); erase_if also move-assigns them.

#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace hni::sim {

template <typename T>
class Ring {
 public:
  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() { clear(); }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  T& front() {
    assert(count_ > 0);
    return slot(head_);
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (buf_ == nullptr || count_ == mask_ + 1) grow();
    T* p = ::new (static_cast<void*>(&slot(head_ + count_)))
        T(std::forward<Args>(args)...);
    ++count_;
    return *p;
  }
  void push_back(T item) { emplace_back(std::move(item)); }

  void pop_front() {
    assert(count_ > 0);
    slot(head_).~T();
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  /// Moves the front element out and pops it.
  T take_front() {
    T item = std::move(front());
    pop_front();
    return item;
  }

  void clear() {
    while (count_ > 0) pop_front();
    head_ = 0;
  }

  /// Removes every element matching `pred`, keeping the rest in order.
  template <typename Pred>
  void erase_if(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < count_; ++i) {
      T& item = slot(head_ + i);
      if (pred(item)) continue;
      if (kept != i) slot(head_ + kept) = std::move(item);
      ++kept;
    }
    for (std::size_t i = kept; i < count_; ++i) slot(head_ + i).~T();
    count_ = kept;
  }

 private:
  struct Storage {
    alignas(T) unsigned char bytes[sizeof(T)];
  };

  T& slot(std::size_t i) {
    return *std::launder(reinterpret_cast<T*>(buf_[i & mask_].bytes));
  }

  void grow() {
    const std::size_t cap = buf_ ? 2 * (mask_ + 1) : 8;
    auto next = std::make_unique_for_overwrite<Storage[]>(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      T& from = slot(head_ + i);
      ::new (static_cast<void*>(next[i].bytes)) T(std::move(from));
      from.~T();
    }
    buf_ = std::move(next);
    mask_ = cap - 1;
    head_ = 0;
  }

  std::unique_ptr<Storage[]> buf_;
  std::size_t mask_ = 0;  // capacity - 1 once allocated
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace hni::sim
