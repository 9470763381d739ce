// Host memory model: real byte storage plus a page-pool allocator.
//
// The interface's contract with the host is descriptor-based: the driver
// pins buffers in host memory and hands the board their physical
// addresses; DMA moves bytes directly between those buffers and the
// board, so each byte crosses the bus exactly once. To let tests verify
// end-to-end byte integrity (not just timing), HostMemory stores actual
// bytes; addresses are simulated physical addresses into that store.

#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "aal/types.hpp"

namespace hni::bus {

/// A contiguous region of (simulated) physical memory.
struct BufferDescriptor {
  std::uint64_t addr = 0;
  std::uint32_t len = 0;
};

/// Scatter/gather list describing one SDU in host memory.
///
/// A small vector: up to kInline buffers (16 KiB of 4 KiB pages, which
/// covers every SDU up to the 9180-octet IP MTU) live inside the list,
/// so a descriptor carries its pages without a heap block. Longer lists
/// spill to the heap. Moving a list copies at most the inline array.
class SgList {
 public:
  static constexpr std::uint32_t kInline = 4;

  SgList() {}
  SgList(const SgList& other) { assign(other); }
  SgList(SgList&& other) noexcept { steal(other); }
  SgList& operator=(const SgList& other) {
    if (this != &other) {
      size_ = 0;
      assign(other);
    }
    return *this;
  }
  SgList& operator=(SgList&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~SgList() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  BufferDescriptor* data() { return on_heap() ? heap_ : inline_; }
  const BufferDescriptor* data() const { return on_heap() ? heap_ : inline_; }
  BufferDescriptor* begin() { return data(); }
  BufferDescriptor* end() { return data() + size_; }
  const BufferDescriptor* begin() const { return data(); }
  const BufferDescriptor* end() const { return data() + size_; }
  BufferDescriptor& operator[](std::size_t i) { return data()[i]; }
  const BufferDescriptor& operator[](std::size_t i) const {
    return data()[i];
  }

  void push_back(const BufferDescriptor& b) {
    if (size_ == capacity_) grow(2 * capacity_);
    data()[size_++] = b;
  }
  void clear() { size_ = 0; }

 private:
  bool on_heap() const { return capacity_ > kInline; }
  void grow(std::uint32_t capacity);
  void assign(const SgList& other);
  void steal(SgList& other) noexcept;
  void release() noexcept;

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInline;  // > kInline: the items are on heap_
  union {
    BufferDescriptor inline_[kInline];
    BufferDescriptor* heap_;
  };
};

/// Total byte count of a scatter/gather list.
std::size_t sg_length(const SgList& sg);

/// Byte-addressable host memory with a fixed-size page allocator.
///
/// The store is an anonymous mapping: the OS zero-fills each page on
/// its first touch, so a never-written byte reads 0 and a station pays
/// (in time and resident memory) only for the pages it uses. pin()
/// faults a prefix of pages in ahead of time, the way a driver pins the
/// buffers it will post, so their first use costs no page fault.
class HostMemory {
 public:
  /// `bytes` of storage carved into pages of `page_bytes`.
  HostMemory(std::size_t bytes, std::size_t page_bytes = 4096);
  ~HostMemory();
  HostMemory(const HostMemory&) = delete;
  HostMemory& operator=(const HostMemory&) = delete;

  std::size_t page_bytes() const { return page_bytes_; }
  std::size_t pages_total() const { return free_.size() + used_; }
  std::size_t pages_free() const { return free_.size(); }
  /// High-water mark of pages outstanding at once. The free list hands
  /// out the lowest pages first and takes freed pages back on top, so
  /// the pages ever handed out are exactly the lowest pages_touched().
  std::size_t pages_touched() const { return peak_; }
  /// Pages of the store the OS holds resident right now (mincore).
  std::size_t pages_resident() const;

  /// Faults in the lowest `pages` pages (clamped to the store) without
  /// changing their contents.
  void pin(std::size_t pages);

  /// Allocates one page; throws std::bad_alloc when exhausted.
  BufferDescriptor alloc_page();

  /// Allocates pages to cover `bytes`, returning a scatter list whose
  /// total length is exactly `bytes` (last page trimmed).
  SgList alloc(std::size_t bytes);

  /// Returns a page (or trimmed page) to the pool. The descriptor must
  /// originate from this allocator.
  void free(const BufferDescriptor& buffer);
  void free(const SgList& sg);

  /// Raw access used by DMA models and the host API.
  void write(std::uint64_t addr, std::span<const std::uint8_t> data);
  void read(std::uint64_t addr, std::span<std::uint8_t> out) const;

  /// Copies an SDU into freshly allocated pages (TX convenience).
  SgList stage(const aal::Bytes& data);

  /// Gathers a scatter list back into a contiguous buffer (RX
  /// convenience); `bytes` may be less than the list's capacity.
  aal::Bytes gather(const SgList& sg, std::size_t bytes) const;
  /// Gathers the first out.size() bytes of a scatter list into `out`.
  void gather(const SgList& sg, std::span<std::uint8_t> out) const;

 private:
  std::size_t page_index(std::uint64_t addr) const;

  std::uint8_t* store_ = nullptr;  // anonymous mapping of bytes_
  std::size_t bytes_;
  std::size_t page_bytes_;
  std::vector<std::uint64_t> free_;  // free page base addresses (LIFO)
  std::size_t used_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace hni::bus
