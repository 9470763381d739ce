#include "net/traffic.hpp"

#include <stdexcept>
#include <utility>

namespace hni::net {

SduSource::SduSource(sim::Simulator& sim, Config config, SendFn send)
    : sim_(sim), config_(config), send_(std::move(send)),
      rng_(config.seed) {
  if (config_.sdu_bytes == 0) {
    throw std::invalid_argument("SduSource: sdu_bytes must be nonzero");
  }
  if (!send_) throw std::invalid_argument("SduSource: send fn required");
}

void SduSource::start() {
  if (running_) return;
  running_ = true;
  if (config_.mode == Mode::kGreedy) {
    // Defer to an event so callers can finish wiring first.
    sim_.after(0, [this] { pump_greedy(); }, sim::Layer::kHost);
  } else {
    if (config_.mode == Mode::kOnOff) {
      phase_ends_ =
          sim_.now() + static_cast<sim::Time>(rng_.exponential(
                           static_cast<double>(config_.mean_on)));
    }
    schedule_next();
  }
}

void SduSource::notify_ready() {
  if (running_ && config_.mode == Mode::kGreedy) pump_greedy();
}

void SduSource::pump_greedy() {
  while (running_ && !done()) {
    const std::uint64_t n = generated_.value();
    aal::Bytes sdu = aal::make_pattern(config_.sdu_bytes, pattern_seed(n));
    if (!send_(std::move(sdu))) {
      refused_.add();
      return;  // wait for notify_ready()
    }
    generated_.add();
    bytes_.add(config_.sdu_bytes);
  }
}

void SduSource::schedule_next() {
  if (!running_ || done()) return;
  sim::Time gap = 0;
  switch (config_.mode) {
    case Mode::kCbr:
      gap = config_.interval;
      break;
    case Mode::kPoisson:
      gap = static_cast<sim::Time>(
          rng_.exponential(static_cast<double>(config_.interval)));
      break;
    case Mode::kOnOff: {
      // Arrivals spaced `interval` apart during an on phase; when the
      // phase is exhausted, dwell off (exponential) and begin the next
      // burst.
      sim::Time when = sim_.now() + config_.interval;
      if (when >= phase_ends_) {
        const sim::Time off = static_cast<sim::Time>(
            rng_.exponential(static_cast<double>(config_.mean_off)));
        when = phase_ends_ + off;
        phase_ends_ = when + static_cast<sim::Time>(rng_.exponential(
                                 static_cast<double>(config_.mean_on)));
      }
      gap = when - sim_.now();
      break;
    }
    case Mode::kGreedy:
      return;  // handled by pump_greedy
  }
  sim_.after(gap, [this] { emit_one(); }, sim::Layer::kHost);
}

void SduSource::emit_one() {
  if (!running_ || done()) return;
  const std::uint64_t n = generated_.value();
  aal::Bytes sdu = aal::make_pattern(config_.sdu_bytes, pattern_seed(n));
  generated_.add();
  bytes_.add(config_.sdu_bytes);
  if (!send_(std::move(sdu))) refused_.add();
  schedule_next();
}

}  // namespace hni::net
