// Interrupt controller with coalescing.
//
// A defining property of the architecture is that the host is
// interrupted per PDU (or less), never per cell. The controller batches
// completion events raised within a coalescing window into a single
// interrupt; the handler learns how many events it covers. A window of
// zero still merges events raised at the same simulated instant.

#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace hni::nic {

class InterruptController {
 public:
  /// Handler receives the number of events the interrupt covers.
  using Handler = std::function<void(std::size_t events)>;

  InterruptController(sim::Simulator& sim, sim::Time coalesce_window)
      : sim_(sim), window_(coalesce_window) {}

  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// Raises one completion event.
  void post() {
    events_.add();
    ++pending_;
    if (armed_) return;
    armed_ = true;
    sim_.after(window_, [this] {
      armed_ = false;
      const std::size_t batch = pending_;
      pending_ = 0;
      interrupts_.add();
      if (handler_) handler_(batch);
    }, sim::Layer::kHost);
  }

  std::uint64_t events() const { return events_.value(); }
  std::uint64_t interrupts() const { return interrupts_.value(); }

  /// Mean events per interrupt (coalescing effectiveness).
  double batching() const {
    return interrupts_.value() == 0
               ? 0.0
               : static_cast<double>(events_.value()) /
                     static_cast<double>(interrupts_.value());
  }

 private:
  sim::Simulator& sim_;
  sim::Time window_;
  Handler handler_;
  std::size_t pending_ = 0;
  bool armed_ = false;
  sim::Counter events_;
  sim::Counter interrupts_;
};

}  // namespace hni::nic
