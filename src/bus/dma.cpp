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

void DmaEngine::attempt(std::size_t bytes, Direction dir,
                        std::uint32_t tries, std::function<void()> success,
                        Failed failed) {
  const sim::Time now = bus_.sim().now();
  if (now < stalled_until_) {
    // The controller is wedged: hold the attempt, resume when it clears.
    bus_.sim().at(stalled_until_,
                  [this, bytes, dir, tries, success = std::move(success),
                   failed = std::move(failed)]() mutable {
                    attempt(bytes, dir, tries, std::move(success),
                            std::move(failed));
                  }, sim::Layer::kBus);
    return;
  }
  bus_.transfer(bytes, dir,
                [this, bytes, dir, tries, success = std::move(success),
                 failed = std::move(failed)]() mutable {
    if (faults_pending_ == 0) {
      success();
      return;
    }
    // This attempt was faulted (parity error, aborted burst, ...).
    --faults_pending_;
    if (tries > config_.max_retries) {
      gave_up_.add();
      if (failed) failed();
      return;
    }
    retries_.add();
    // Exponential backoff: base, 2*base, 4*base, ...
    const sim::Time backoff =
        config_.retry_backoff << std::min<std::uint32_t>(tries - 1, 30);
    bus_.sim().after(backoff,
                     [this, bytes, dir, tries, success = std::move(success),
                      failed = std::move(failed)]() mutable {
                       attempt(bytes, dir, tries + 1, std::move(success),
                               std::move(failed));
                     }, sim::Layer::kBus);
  });
}

void DmaEngine::read(const SgList& sg, std::size_t offset, std::size_t len,
                     ReadDone done, Failed failed) {
  reads_.add();
  bytes_read_.add(len);
  attempt(len, Direction::kRead, 1,
          [this, sg, offset, len, done = std::move(done)] {
            aal::Bytes data(len);
            copy_window(sg, offset,
                        std::span<std::uint8_t>(data.data(), len),
                        /*to_host=*/false);
            done(std::move(data));
          },
          std::move(failed));
}

void DmaEngine::write(const SgList& sg, std::size_t offset, aal::Bytes data,
                      Done done, Failed failed) {
  writes_.add();
  const std::size_t len = data.size();
  bytes_written_.add(len);
  attempt(len, Direction::kWrite, 1,
          [this, sg, offset, data = std::move(data),
           done = std::move(done)]() mutable {
            copy_window(sg, offset,
                        std::span<std::uint8_t>(data.data(), data.size()),
                        /*to_host=*/true);
            done();
          },
          std::move(failed));
}

}  // namespace hni::bus
