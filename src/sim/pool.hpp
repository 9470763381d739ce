// Object pool with stable addresses.
//
// Per-PDU records (a DMA transfer in flight, a TX staging slot, an RX
// landing) are referenced from kernel events by pointer, so they must
// not move, and they are reused rather than freed so that a warm pool
// serves every PDU without the allocator. A recycled object keeps its
// state: buffers it owns keep their capacity for the next user.

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace hni::sim {

template <typename T>
class Pool {
 public:
  /// A free object: a recycled one if any, else a new default one.
  T* acquire() {
    if (!free_.empty()) {
      T* item = free_.back();
      free_.pop_back();
      return item;
    }
    all_.push_back(std::make_unique<T>());
    free_.reserve(all_.size());  // release() then never reallocates
    return all_.back().get();
  }

  /// Returns an object taken from this pool.
  void release(T* item) { free_.push_back(item); }

  /// Objects created so far (in use plus free).
  std::size_t size() const { return all_.size(); }

 private:
  std::vector<std::unique_ptr<T>> all_;
  std::vector<T*> free_;
};

}  // namespace hni::sim
