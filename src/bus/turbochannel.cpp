#include "bus/turbochannel.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hni::bus {

Bus::Bus(sim::Simulator& sim, BusConfig config)
    : sim_(sim), config_(config), born_(sim.now()) {
  if (config_.clock_hz <= 0 || config_.word_bytes == 0 ||
      config_.max_burst_words == 0) {
    throw std::invalid_argument("Bus: invalid configuration");
  }
}

sim::Time Bus::burst_time(std::size_t words, Direction dir) const {
  std::uint64_t cycles = config_.overhead_cycles + words;
  if (dir == Direction::kRead) cycles += config_.read_latency_cycles;
  return static_cast<sim::Time>(cycles) * config_.cycle();
}

sim::Time Bus::transfer_time(std::size_t bytes, Direction dir) const {
  if (bytes == 0) return 0;
  const std::size_t words =
      (bytes + config_.word_bytes - 1) / config_.word_bytes;
  const std::size_t full = words / config_.max_burst_words;
  const std::size_t tail = words % config_.max_burst_words;
  sim::Time t = static_cast<sim::Time>(full) *
                burst_time(config_.max_burst_words, dir);
  if (tail != 0) t += burst_time(tail, dir);
  return t;
}

sim::Time Bus::pio_time(std::size_t bytes, Direction dir) const {
  if (bytes == 0) return 0;
  const std::size_t words =
      (bytes + config_.word_bytes - 1) / config_.word_bytes;
  return static_cast<sim::Time>(words) * burst_time(1, dir);
}

void Bus::submit(std::size_t bytes, Direction dir,
                 std::size_t words_per_burst, Done done) {
  transfers_.add();
  bytes_.add(bytes);
  if (bytes == 0) {
    sim_.after(0, std::move(done), sim::Layer::kBus);
    return;
  }
  Pending p;
  p.words_left = (bytes + config_.word_bytes - 1) / config_.word_bytes;
  p.words_per_burst = words_per_burst;
  p.dir = dir;
  p.done = std::move(done);
  p.submitted = sim_.now();
  p.started = false;
  queue_.push_back(std::move(p));
  if (!serving_) serve_next();
}

void Bus::transfer(std::size_t bytes, Direction dir, Done done) {
  submit(bytes, dir, config_.max_burst_words, std::move(done));
}

void Bus::pio_transfer(std::size_t bytes, Direction dir, Done done) {
  // Programmed I/O: each word is its own transaction; it arbitrates
  // against DMA bursts like any other requestor.
  submit(bytes, dir, 1, std::move(done));
}

// Round-robin arbitration at burst granularity: the front requestor
// gets one burst, then rotates to the back of the ring, so a short
// transfer is never stuck behind a long one for more than the ring's
// worth of bursts — how real multi-master buses behave.
void Bus::hold_off(sim::Time duration) {
  holdoffs_.add();
  held_until_ = std::max(held_until_, sim_.now() + std::max<sim::Time>(0, duration));
  // An idle bus must still wake itself when the hold clears, in case
  // transfers arrive meanwhile; a serving bus re-checks between bursts.
  if (!serving_ && !queue_.empty()) serve_next();
}

void Bus::serve_next() {
  if (queue_.empty()) {
    serving_ = false;
    return;
  }
  serving_ = true;
  if (sim_.now() < held_until_) {
    // Arbiter held off: no grants until the hold clears.
    sim_.at(held_until_, [this] { serve_next(); }, sim::Layer::kBus);
    return;
  }
  Pending p = std::move(queue_.front());
  queue_.pop_front();
  if (!p.started) {
    p.started = true;
    queueing_us_.add(sim::to_microseconds(sim_.now() - p.submitted));
  }
  const std::size_t words = std::min(p.words_left, p.words_per_burst);
  p.words_left -= words;
  const sim::Time t = burst_time(words, p.dir);
  busy_accum_ += t;
  if (p.words_left == 0) {
    finishing_ = std::move(p.done);
  } else {
    queue_.push_back(std::move(p));
  }
  sim_.after(t, [this] { burst_done(); }, sim::Layer::kBus);
}

void Bus::burst_done() {
  if (finishing_) {
    Done done = std::move(finishing_);
    done();
  }
  serve_next();
}

double Bus::utilization(sim::Time now) const {
  const sim::Time elapsed = now - born_;
  if (elapsed <= 0) return 0.0;
  // busy_accum_ counts scheduled bursts, the last of which may extend
  // slightly past `now`; clamp.
  return std::min(1.0, static_cast<double>(busy_accum_) /
                           static_cast<double>(elapsed));
}

}  // namespace hni::bus
