#include "bus/dma.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hni::bus {

void DmaEngine::copy_window(const SgList& sg, std::size_t offset,
                            std::span<std::uint8_t> linear, bool to_host) {
  std::size_t skip = offset;
  std::size_t pos = 0;
  for (const auto& b : sg) {
    if (pos == linear.size()) break;
    if (skip >= b.len) {
      skip -= b.len;
      continue;
    }
    const std::size_t avail = b.len - skip;
    const std::size_t take =
        std::min<std::size_t>(avail, linear.size() - pos);
    if (to_host) {
      memory_.write(b.addr + skip, linear.subspan(pos, take));
    } else {
      memory_.read(b.addr + skip, linear.subspan(pos, take));
    }
    pos += take;
    skip = 0;
  }
  if (pos != linear.size()) {
    throw std::out_of_range("DmaEngine: window exceeds scatter list");
  }
}

void DmaEngine::stall(sim::Time duration) {
  stalls_.add();
  stalled_until_ =
      std::max(stalled_until_, bus_.sim().now() + std::max<sim::Time>(0, duration));
}

DmaEngine::Transfer* DmaEngine::start(const SgList& sg, std::size_t offset,
                                      std::uint8_t* linear, std::size_t len,
                                      Direction dir, Done done,
                                      Failed failed) {
  Transfer* t = transfers_.acquire();
  t->sg = &sg;
  t->offset = offset;
  t->linear = linear;
  t->len = len;
  t->dir = dir;
  t->tries = 1;
  t->done = std::move(done);
  t->failed = std::move(failed);
  return t;
}

void DmaEngine::attempt(Transfer* t) {
  if (bus_.sim().now() < stalled_until_) {
    // The controller is wedged: hold the attempt, resume when it clears.
    bus_.sim().at(stalled_until_, [this, t] { attempt(t); }, sim::Layer::kBus);
    return;
  }
  bus_.transfer(t->len, t->dir, [this, t] { attempt_done(t); });
}

void DmaEngine::attempt_done(Transfer* t) {
  if (faults_pending_ == 0) {
    copy_window(*t->sg, t->offset, std::span<std::uint8_t>(t->linear, t->len),
                /*to_host=*/t->dir == Direction::kWrite);
    Done done = std::move(t->done);
    t->failed.reset();
    transfers_.release(t);
    done();
    return;
  }
  // This attempt was faulted (parity error, aborted burst, ...).
  --faults_pending_;
  if (t->tries > config_.max_retries) {
    gave_up_.add();
    Failed failed = std::move(t->failed);
    t->done.reset();
    transfers_.release(t);
    if (failed) failed();
    return;
  }
  retries_.add();
  // Exponential backoff: base, 2*base, 4*base, ...
  const sim::Time backoff =
      config_.retry_backoff << std::min<std::uint32_t>(t->tries - 1, 30);
  ++t->tries;
  bus_.sim().after(backoff, [this, t] { attempt(t); }, sim::Layer::kBus);
}

void DmaEngine::read(const SgList& sg, std::size_t offset,
                     std::span<std::uint8_t> out, Done done, Failed failed) {
  reads_.add();
  bytes_read_.add(out.size());
  attempt(start(sg, offset, out.data(), out.size(), Direction::kRead,
                std::move(done), std::move(failed)));
}

void DmaEngine::write(const SgList& sg, std::size_t offset,
                      std::span<const std::uint8_t> data, Done done,
                      Failed failed) {
  writes_.add();
  bytes_written_.add(data.size());
  // The record's board pointer serves both directions; a write only
  // ever reads through it.
  attempt(start(sg, offset, const_cast<std::uint8_t*>(data.data()),
                data.size(), Direction::kWrite, std::move(done),
                std::move(failed)));
}

}  // namespace hni::bus
