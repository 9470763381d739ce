#include "bus/host_memory.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>

#include <sys/mman.h>
#include <unistd.h>

namespace hni::bus {

namespace {

std::size_t os_page_bytes() {
  static const std::size_t bytes =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return bytes;
}

}  // namespace

void SgList::grow(std::uint32_t capacity) {
  auto* items = new BufferDescriptor[capacity];
  std::copy(begin(), end(), items);
  if (on_heap()) delete[] heap_;
  heap_ = items;
  capacity_ = capacity;
}

void SgList::assign(const SgList& other) {
  if (other.size_ > capacity_) grow(other.size_);
  std::copy(other.begin(), other.end(), data());
  size_ = other.size_;
}

void SgList::steal(SgList& other) noexcept {
  size_ = other.size_;
  capacity_ = other.capacity_;
  if (other.on_heap()) {
    heap_ = other.heap_;
  } else {
    std::copy(other.inline_, other.inline_ + other.size_, inline_);
  }
  other.size_ = 0;
  other.capacity_ = kInline;
}

void SgList::release() noexcept {
  if (on_heap()) delete[] heap_;
  capacity_ = kInline;
  size_ = 0;
}

std::size_t sg_length(const SgList& sg) {
  std::size_t n = 0;
  for (const auto& b : sg) n += b.len;
  return n;
}

HostMemory::HostMemory(std::size_t bytes, std::size_t page_bytes)
    : bytes_(bytes), page_bytes_(page_bytes) {
  if (page_bytes == 0 || bytes < page_bytes) {
    throw std::invalid_argument("HostMemory: need at least one page");
  }
  void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  store_ = static_cast<std::uint8_t*>(p);
  // Keep faults page-sized wherever transparent huge pages are on by
  // default: a huge page would zero 2 MiB for one touched buffer.
  (void)::madvise(p, bytes_, MADV_NOHUGEPAGE);
  const std::size_t pages = bytes / page_bytes;
  free_.reserve(pages);
  // LIFO order: lowest addresses allocated first (stable for tests).
  for (std::size_t i = pages; i-- > 0;) {
    free_.push_back(static_cast<std::uint64_t>(i) * page_bytes);
  }
}

HostMemory::~HostMemory() { ::munmap(store_, bytes_); }

void HostMemory::pin(std::size_t pages) {
  const std::size_t len = std::min(pages, pages_total()) * page_bytes_;
  if (len == 0) return;
#ifdef MADV_POPULATE_WRITE
  if (::madvise(store_, len, MADV_POPULATE_WRITE) == 0) return;
#endif
  // Fallback: a write fault per page. Rewriting a byte with its own
  // value faults the page in writable and leaves its contents alone.
  volatile std::uint8_t* p = store_;
  for (std::size_t off = 0; off < len; off += os_page_bytes()) {
    p[off] = p[off];
  }
}

std::size_t HostMemory::pages_resident() const {
  const std::size_t os_page = os_page_bytes();
  std::vector<unsigned char> in_core((bytes_ + os_page - 1) / os_page);
  if (::mincore(store_, bytes_, in_core.data()) != 0) {
    throw std::runtime_error("HostMemory: mincore failed");
  }
  std::size_t resident = 0;
  for (const unsigned char c : in_core) resident += c & 1u;
  return (resident * os_page + page_bytes_ - 1) / page_bytes_;
}

BufferDescriptor HostMemory::alloc_page() {
  if (free_.empty()) throw std::bad_alloc();
  const std::uint64_t addr = free_.back();
  free_.pop_back();
  peak_ = std::max(peak_, ++used_);
  return BufferDescriptor{addr, static_cast<std::uint32_t>(page_bytes_)};
}

SgList HostMemory::alloc(std::size_t bytes) {
  if (bytes == 0) throw std::invalid_argument("HostMemory::alloc(0)");
  SgList sg;
  std::size_t remaining = bytes;
  while (remaining > 0) {
    BufferDescriptor page = alloc_page();
    page.len = static_cast<std::uint32_t>(
        std::min<std::size_t>(remaining, page_bytes_));
    sg.push_back(page);
    remaining -= page.len;
  }
  return sg;
}

std::size_t HostMemory::page_index(std::uint64_t addr) const {
  if (addr % page_bytes_ != 0 || addr + page_bytes_ > bytes_) {
    throw std::invalid_argument("HostMemory: bad page address");
  }
  return static_cast<std::size_t>(addr / page_bytes_);
}

void HostMemory::free(const BufferDescriptor& buffer) {
  (void)page_index(buffer.addr);  // validate
  free_.push_back(buffer.addr);
  --used_;
}

void HostMemory::free(const SgList& sg) {
  for (const auto& b : sg) free(b);
}

void HostMemory::write(std::uint64_t addr,
                       std::span<const std::uint8_t> data) {
  if (addr + data.size() > bytes_) {
    throw std::out_of_range("HostMemory::write beyond end of memory");
  }
  std::memcpy(store_ + addr, data.data(), data.size());
}

void HostMemory::read(std::uint64_t addr, std::span<std::uint8_t> out) const {
  if (addr + out.size() > bytes_) {
    throw std::out_of_range("HostMemory::read beyond end of memory");
  }
  std::memcpy(out.data(), store_ + addr, out.size());
}

SgList HostMemory::stage(const aal::Bytes& data) {
  SgList sg = alloc(data.size());
  std::size_t off = 0;
  for (const auto& b : sg) {
    write(b.addr, std::span<const std::uint8_t>(data.data() + off, b.len));
    off += b.len;
  }
  return sg;
}

aal::Bytes HostMemory::gather(const SgList& sg, std::size_t bytes) const {
  aal::Bytes out(bytes);
  gather(sg, std::span<std::uint8_t>(out));
  return out;
}

void HostMemory::gather(const SgList& sg, std::span<std::uint8_t> out) const {
  std::size_t off = 0;
  for (const auto& b : sg) {
    if (off >= out.size()) break;
    const std::size_t take = std::min<std::size_t>(b.len, out.size() - off);
    read(b.addr, out.subspan(off, take));
    off += take;
  }
  if (off != out.size()) {
    throw std::length_error("HostMemory::gather: list shorter than bytes");
  }
}

}  // namespace hni::bus
