#include "proc/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hni::proc {

Engine::Engine(sim::Simulator& sim, EngineConfig config, sim::Layer layer)
    : sim_(sim), layer_(layer), config_(std::move(config)), born_(sim.now()) {
  if (config_.clock_hz <= 0 || config_.cpi <= 0) {
    throw std::invalid_argument("Engine: clock and cpi must be positive");
  }
}

sim::Time Engine::cost(std::uint32_t instructions) const {
  const double cycles = static_cast<double>(instructions) * config_.cpi;
  return static_cast<sim::Time>(
      cycles * static_cast<double>(sim::kSecond) / config_.clock_hz + 0.5);
}

void Engine::execute(std::uint32_t instructions, Done done) {
  instructions_.add(instructions);
  occupy(cost(instructions), std::move(done));
}

void Engine::execute(sim::CycleProfiler::PhaseId phase,
                     std::uint32_t instructions, Done done) {
  instructions_.add(instructions);
  const sim::Time t = cost(instructions);
  if (profiler_) profiler_->add(phase, t);
  occupy(t, std::move(done));
}

void Engine::occupy(sim::Time duration, Done done) {
  const sim::Time now = sim_.now();
  const bool idle = free_at_ <= now && queue_.empty();
  const sim::Time start = std::max(now, free_at_);
  free_at_ = start + duration;
  busy_accum_ += duration;
  items_.add();
  if (idle) {
    sim_.at(free_at_, std::move(done), layer_);
    return;
  }
  queue_.push_back(Queued{free_at_, sim_.reserve_seq(), std::move(done)});
  if (queue_.size() == 1) arm_front();
}

void Engine::arm_front() {
  const Queued& q = queue_.front();
  sim_.at_reserved(q.when, q.seq, [this] { fire_front(); }, layer_);
}

void Engine::fire_front() {
  Done done = std::move(queue_.front().done);
  queue_.pop_front();
  if (!queue_.empty()) arm_front();
  done();
}

double Engine::utilization(sim::Time now) const {
  const sim::Time elapsed = now - born_;
  if (elapsed <= 0) return 0.0;
  const sim::Time pending = std::max<sim::Time>(0, free_at_ - now);
  const sim::Time busy =
      std::min<sim::Time>(busy_accum_ - pending, elapsed);
  return static_cast<double>(std::max<sim::Time>(busy, 0)) /
         static_cast<double>(elapsed);
}

}  // namespace hni::proc
