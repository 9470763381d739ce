// Physical-layer model: SONET-carried ATM cell pacing.
//
// The paper's interface targets SONET STS-3c (155.52 Mb/s line rate) and
// STS-12c (622.08 Mb/s). SONET section/line/path overhead leaves a
// synchronous payload envelope of 149.760 Mb/s (STS-3c) resp.
// 599.040 Mb/s (STS-12c) for cells; back-to-back cells therefore occupy
// a fixed slot of 53*8 / payload_rate: 2.831 us at STS-3c, 707.7 ns at
// STS-12c. Only the slot time and payload rate enter the paper's
// analysis, so the model is exactly that: a slot clock. Unused slots
// carry idle cells, which receivers drop.
//
// TxFramer takes a cell from its TX FIFO at slot boundaries and hands
// it on after one slot of serialization delay. It is event-driven: the
// slot grid start + k*slot is fixed when the framer starts, but only
// boundaries that carry a cell cost a kernel event. Idle slots are
// counted by arithmetic, not simulated.

#pragma once

#include <cstdint>
#include <functional>

#include "atm/cell.hpp"
#include "atm/fifo.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace hni::atm {

/// A physical line description.
struct LineRate {
  double line_bps = 0.0;     // gross line rate (reporting only)
  double payload_bps = 0.0;  // cell payload capacity actually paced on

  /// Duration of one 53-octet cell slot at the payload rate.
  sim::Time cell_slot() const {
    return sim::serialization_time(kCellBits, payload_bps);
  }

  /// Cells per second of payload capacity.
  double cells_per_second() const {
    return payload_bps / static_cast<double>(kCellBits);
  }
};

/// SONET STS-3c: 155.52 Mb/s line, 149.760 Mb/s payload (~353,208 cells/s).
LineRate sts3c();

/// SONET STS-12c: 622.08 Mb/s line, 599.040 Mb/s payload (~1,412,830 cells/s).
LineRate sts12c();

/// A custom rate with negligible framing overhead (for sweeps).
LineRate raw_rate(double bps);

/// Transmit framer: drains one TX FIFO onto the line, one cell per
/// slot. Slot boundaries sit at start + k*slot from start() on. At a
/// boundary with a cell queued the framer pops it and hands it to
/// `sink` one slot later; a boundary with the FIFO empty carries an
/// idle cell.
///
/// Event-driven, phase-exact: the framer schedules an event only for
/// a boundary that will carry a cell. While the FIFO holds cells a
/// wake is armed for the next boundary; when the FIFO runs empty the
/// framer disarms and schedules nothing. The push that makes the FIFO
/// non-empty arms the next boundary the framer has not yet served, on
/// the same grid, so slot phase and the ppm offset are unchanged.
/// idle_slots() and utilization() are arithmetic over the boundaries
/// elapsed since start().
///
/// Tie rule: a cell pushed at the exact instant of a boundary the
/// framer has not served leaves in that slot. A boundary is served
/// once the framer has popped a cell there; idle boundaries before
/// now are gone. (A polled framer that fires every boundary would
/// send such a cell in that slot or the next, depending on which
/// event the kernel's FIFO tie-break ran first.)
class TxFramer {
 public:
  using Sink = std::function<void(const Cell&)>;

  TxFramer(sim::Simulator& sim, LineRate rate);

  /// Binds the framer to the FIFO it drains: the framer pops from it
  /// and takes over its push hook to wake the line, so every producer
  /// that pushes into `fifo` wakes the framer. Must be called before
  /// start(); `fifo` must outlive the framer.
  void bind(CellFifo<Cell>& fifo);
  /// Installs the downstream consumer (typically a net::Link).
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Models oscillator inaccuracy: the slot clock runs `ppm` parts per
  /// million fast (+) or slow (-). Real SONET clocks are +-20..50 ppm;
  /// without this, independent framers stay phase-locked forever and
  /// contention experiments see unrealistically clean drop patterns.
  /// Call before start().
  void set_clock_ppm(double ppm);

  /// Starts the slot clock at the current simulation time: boundary 0
  /// is now. Throws unless a FIFO is bound and a sink set.
  void start();
  /// Stops the slot clock; a cell already popped still completes.
  void stop();

  const LineRate& rate() const { return rate_; }
  /// Effective slot length (nominal, adjusted by the clock ppm).
  sim::Time slot() const { return slot_; }
  std::uint64_t cells_sent() const { return cells_sent_.value(); }
  /// Boundaries elapsed since start() (up to stop()) that carried no
  /// cell.
  std::uint64_t idle_slots() const;

  /// Fraction of elapsed slots that carried a live cell.
  double utilization() const;

  /// Whether a wake is scheduled for the next boundary.
  bool wake_armed() const { return armed_; }
  /// A running framer with cells queued and no wake armed: the line
  /// would sit idle under queued cells. Only a FIFO whose push hook was
  /// replaced after bind() can get here; core::InvariantAuditor checks
  /// it.
  bool stalled() const {
    return running_ && !armed_ && fifo_ != nullptr && !fifo_->empty();
  }

 private:
  void wake();
  void arm(std::uint64_t boundary);
  void on_slot(std::uint64_t boundary);
  /// Boundaries elapsed in every run so far, this one up to now.
  std::uint64_t slots_elapsed() const;

  sim::Simulator& sim_;
  LineRate rate_;
  sim::Time slot_;  // effective slot (nominal +- ppm)
  CellFifo<Cell>* fifo_ = nullptr;
  Sink sink_;
  bool running_ = false;
  bool armed_ = false;
  sim::Time start_ = 0;              // boundary 0 of the current run
  std::uint64_t next_boundary_ = 0;  // first boundary not yet served
  std::uint64_t slots_before_ = 0;   // boundaries of earlier runs
  sim::EventHandle wake_;
  sim::Counter cells_sent_;
};

}  // namespace hni::atm
