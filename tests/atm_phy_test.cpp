// PHY model tests: SONET payload rates, slot arithmetic, and the
// transmit framer's pacing/idle behaviour — including a randomized
// differential against a polled reference framer, and the tie rule the
// event-driven framer pins where the two may differ.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "atm/fifo.hpp"
#include "atm/phy.hpp"
#include "core/audit.hpp"

namespace hni::atm {
namespace {

TEST(LineRate, Sts3cNumbers) {
  const LineRate r = sts3c();
  EXPECT_DOUBLE_EQ(r.line_bps, 155.52e6);
  EXPECT_DOUBLE_EQ(r.payload_bps, 149.760e6);
  // 149.76e6 / 424 = 353,207.5 cells/s
  EXPECT_NEAR(r.cells_per_second(), 353207.5, 0.1);
  // slot = 424 / 149.76e6 s = 2.8312 us
  EXPECT_NEAR(static_cast<double>(r.cell_slot()), 2.8312e6, 100.0);
}

TEST(LineRate, Sts12cNumbers) {
  const LineRate r = sts12c();
  EXPECT_DOUBLE_EQ(r.payload_bps, 599.040e6);
  EXPECT_NEAR(r.cells_per_second(), 1412830.2, 1.0);
  EXPECT_NEAR(static_cast<double>(r.cell_slot()), 707.8e3, 100.0);
}

TEST(LineRate, Sts12cIsFourTimesSts3c) {
  EXPECT_NEAR(sts12c().payload_bps / sts3c().payload_bps, 4.0, 1e-9);
}

TEST(LineRate, RawRateHasNoOverhead) {
  const LineRate r = raw_rate(424e6);
  EXPECT_DOUBLE_EQ(r.line_bps, r.payload_bps);
  EXPECT_EQ(r.cell_slot(), sim::microseconds(1));
}

// --- helpers ----------------------------------------------------------

Cell numbered(std::uint64_t n) {
  Cell c;
  c.meta.seq = n;
  return c;
}

// A framer bound to a FIFO, recording (time, cell number) at its sink.
struct Line {
  explicit Line(sim::Simulator& sim, LineRate rate = raw_rate(424e6),
                std::size_t capacity = 64)
      : fifo(sim, capacity), framer(sim, std::move(rate)) {
    framer.bind(fifo);
    framer.set_sink([this, &sim](const Cell& c) {
      sent.emplace_back(sim.now(), c.meta.seq);
    });
  }
  CellFifo<Cell> fifo;
  TxFramer framer;
  std::vector<std::pair<sim::Time, std::uint64_t>> sent;
};

sim::Time us(std::int64_t n) { return sim::microseconds(n); }
sim::Time ns(std::int64_t n) { return sim::nanoseconds(n); }

// --- TxFramer ---------------------------------------------------------

TEST(TxFramer, RequiresWiringBeforeStart) {
  sim::Simulator sim;
  TxFramer framer(sim, sts3c());
  EXPECT_THROW(framer.start(), std::logic_error);
  CellFifo<Cell> fifo(sim, 4);
  framer.bind(fifo);
  EXPECT_THROW(framer.start(), std::logic_error);  // still no sink
}

TEST(TxFramer, RejectsNonPositiveRate) {
  sim::Simulator sim;
  EXPECT_THROW(TxFramer(sim, raw_rate(0.0)), std::invalid_argument);
}

TEST(TxFramer, PacesCellsAtSlotRate) {
  sim::Simulator sim;
  Line line(sim);  // slot = exactly 1 us
  for (std::uint64_t n = 0; n < 5; ++n) line.fifo.push(numbered(n));
  line.framer.start();
  sim.run_until(us(20));

  ASSERT_EQ(line.sent.size(), 5u);
  // Cell n completes serialization at (n+1) slots.
  for (std::size_t i = 0; i < line.sent.size(); ++i) {
    EXPECT_EQ(line.sent[i].first, us(static_cast<std::int64_t>(i + 1)));
    EXPECT_EQ(line.sent[i].second, i);
  }
  EXPECT_EQ(line.framer.cells_sent(), 5u);
}

TEST(TxFramer, CountsIdleSlots) {
  // A producer pushes one cell every other slot, mid-slot, into the
  // FIFO; the framer carries it at the next boundary.
  sim::Simulator sim;
  Line line(sim);
  for (std::int64_t i = 0; i < 50; ++i) {
    sim.at(ns(2000 * i + 500), [&line, i] {
      line.fifo.push(numbered(static_cast<std::uint64_t>(i)));
    });
  }
  line.framer.start();
  sim.run_until(us(100));
  // Boundaries 0..100 us: 101 slots, 50 of them busy.
  EXPECT_EQ(line.framer.cells_sent(), 50u);
  EXPECT_EQ(line.framer.idle_slots(), 51u);
  EXPECT_NEAR(line.framer.utilization(), 0.5, 0.02);
  ASSERT_EQ(line.sent.size(), 50u);
  EXPECT_EQ(line.sent.front().first, us(2));  // boundary 1, +1 slot
}

TEST(TxFramer, StopHaltsTheSlotClock) {
  sim::Simulator sim;
  Line line(sim);
  for (std::uint64_t n = 0; n < 64; ++n) line.fifo.push(numbered(n));
  line.framer.start();
  sim.run_until(ns(10500));
  line.framer.stop();
  const auto sent = line.framer.cells_sent();
  const auto idle = line.framer.idle_slots();
  sim.run_until(us(50));
  // The popped cell completes; nothing more is popped or counted.
  EXPECT_EQ(line.framer.cells_sent(), sent);
  EXPECT_EQ(line.framer.idle_slots(), idle);
  EXPECT_EQ(line.sent.size(), sent);
  EXPECT_FALSE(line.framer.wake_armed());
}

TEST(TxFramer, FullUtilizationWhenAlwaysSupplied) {
  sim::Simulator sim;
  Line line(sim, sts3c(), 512);
  for (std::uint64_t n = 0; n < 400; ++n) line.fifo.push(numbered(n));
  line.framer.start();
  sim.run_until(sim::milliseconds(1));
  EXPECT_DOUBLE_EQ(line.framer.utilization(), 1.0);
  EXPECT_EQ(line.framer.idle_slots(), 0u);
  // ~353 cells in a millisecond at STS-3c.
  EXPECT_NEAR(static_cast<double>(line.framer.cells_sent()), 353.0, 2.0);
}

TEST(TxFramer, IdleLineFiresNoEvents) {
  sim::Simulator sim;
  Line line(sim, sts3c());
  line.framer.start();
  sim.run_until(sim::milliseconds(1));
  EXPECT_EQ(sim.events_fired(), 0u);
  EXPECT_FALSE(line.framer.wake_armed());
  EXPECT_EQ(line.framer.idle_slots(), 354u);  // boundaries 0..353
  EXPECT_DOUBLE_EQ(line.framer.utilization(), 0.0);

  // One cell: one slot event plus its serialization, both framer's.
  line.fifo.push(numbered(7));
  EXPECT_TRUE(line.framer.wake_armed());
  sim.run();
  EXPECT_EQ(sim.census()[static_cast<std::size_t>(sim::Layer::kFramer)],
            2u);
  EXPECT_EQ(sim.events_fired(), 2u);
  ASSERT_EQ(line.sent.size(), 1u);
  // Pushed at 1 ms, it leaves at boundary 354 and lands a slot later.
  const sim::Time slot = line.framer.slot();
  EXPECT_EQ(line.sent[0].first, 355 * slot);
}

TEST(TxFramer, WakeKeepsTheSlotPhaseAndPpm) {
  // Started off-grid at 300 ns with a +50 ppm clock: boundaries stay at
  // 300 ns + k * slot however long the line sleeps.
  sim::Simulator sim;
  Line line(sim);
  line.framer.set_clock_ppm(50.0);
  const sim::Time slot = line.framer.slot();
  ASSERT_EQ(slot, ns(1000) + 50);  // 1 us + 50 ppm
  sim.at(ns(300), [&] { line.framer.start(); });
  sim.at(ns(3400), [&] { line.fifo.push(numbered(1)); });
  sim.at(us(500), [&] { line.fifo.push(numbered(2)); });
  sim.run();
  ASSERT_EQ(line.sent.size(), 2u);
  EXPECT_EQ(line.sent[0].first, ns(300) + 5 * slot);  // boundary 4, +1
  const sim::Time k = (us(500) - ns(300) + slot - 1) / slot;
  EXPECT_EQ(line.sent[1].first, ns(300) + (k + 1) * slot);
}

TEST(TxFramer, QueuedCellsLeaveBackToBackAfterOneWake) {
  sim::Simulator sim;
  Line line(sim);
  line.framer.start();
  sim.at(ns(2500), [&] {
    for (std::uint64_t n = 0; n < 4; ++n) line.fifo.push(numbered(n));
  });
  sim.run();
  ASSERT_EQ(line.sent.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(line.sent[i].first, us(static_cast<std::int64_t>(4 + i)));
  }
  // Four slot events and four serializations: no idle tick fired.
  EXPECT_EQ(sim.events_fired(), 1u + 8u);
}

// --- The tie rule -------------------------------------------------------
//
// A cell pushed at the exact instant of a boundary the framer has not
// served leaves in that slot. A polled framer would decide this by the
// kernel's FIFO tie-break between its idle tick and the push, so these
// cases are pinned here and excluded from the differential below.

TEST(TxFramerTie, PushAtAnUnservedBoundaryLeavesInThatSlot) {
  // The push is scheduled at 2.5 us for 3 us. A polled framer's tick
  // for 3 us was scheduled at 2 us, so it would fire first, find the
  // FIFO empty and send the cell at boundary 4. The event-driven
  // framer has not served boundary 3: the cell leaves there.
  sim::Simulator sim;
  Line line(sim);
  line.framer.start();
  sim.at(ns(2500), [&] {
    sim.at(us(3), [&] { line.fifo.push(numbered(1)); });
  });
  sim.run();
  ASSERT_EQ(line.sent.size(), 1u);
  EXPECT_EQ(line.sent[0].first, us(4));
  EXPECT_EQ(line.framer.idle_slots(), 4u);  // boundaries 0-2 and 4
}

TEST(TxFramerTie, PushAtTheStartInstantLeavesInSlotZero) {
  sim::Simulator sim;
  Line line(sim);
  line.framer.start();
  line.fifo.push(numbered(1));
  sim.run();
  ASSERT_EQ(line.sent.size(), 1u);
  EXPECT_EQ(line.sent[0].first, us(1));
}

TEST(TxFramerTie, PushAtAServedBoundaryWaitsForTheNext) {
  // Cell 1 (pushed at 0.5 us) is served at boundary 1 (1 us). Cell 2 is
  // pushed at exactly 1 us by an event scheduled after the wake, so it
  // runs after boundary 1 was served: cell 2 leaves at boundary 2.
  sim::Simulator sim;
  Line line(sim);
  line.framer.start();
  sim.at(ns(500), [&] { line.fifo.push(numbered(1)); });
  sim.at(ns(700), [&] {
    sim.at(us(1), [&] { line.fifo.push(numbered(2)); });
  });
  sim.run();
  ASSERT_EQ(line.sent.size(), 2u);
  EXPECT_EQ(line.sent[0], std::make_pair(us(2), std::uint64_t{1}));
  EXPECT_EQ(line.sent[1], std::make_pair(us(3), std::uint64_t{2}));
}

TEST(TxFramerTie, PushBeforeTheBoundaryIsServedQueuesBehind) {
  // Same instant, but the push of cell 2 was scheduled before the wake
  // for boundary 1 existed: it runs first, and FIFO order still sends
  // cell 1 at boundary 1 and cell 2 at boundary 2.
  sim::Simulator sim;
  Line line(sim);
  line.framer.start();
  sim.at(ns(200), [&] {
    sim.at(us(1), [&] { line.fifo.push(numbered(2)); });
  });
  sim.at(ns(500), [&] { line.fifo.push(numbered(1)); });
  sim.run();
  ASSERT_EQ(line.sent.size(), 2u);
  EXPECT_EQ(line.sent[0], std::make_pair(us(2), std::uint64_t{1}));
  EXPECT_EQ(line.sent[1], std::make_pair(us(3), std::uint64_t{2}));
}

// --- Differential against a polled reference ------------------------------

// The framer as it was before it went event-driven, kept only as a
// test oracle: an event at every slot boundary, busy or idle.
class PolledFramer {
 public:
  PolledFramer(sim::Simulator& sim, sim::Time slot, CellFifo<Cell>& fifo,
               std::function<void(const Cell&)> sink)
      : sim_(sim), slot_(slot), fifo_(fifo), sink_(std::move(sink)) {}

  void start() {
    sim_.after(0, [this] { on_slot(); });
  }
  std::uint64_t cells_sent() const { return cells_; }
  std::uint64_t idle_slots() const { return idle_; }
  double utilization() const {
    return static_cast<double>(cells_) / static_cast<double>(cells_ + idle_);
  }

 private:
  void on_slot() {
    if (std::optional<Cell> cell = fifo_.pop()) {
      ++cells_;
      sim_.after(slot_, [this, c = *cell] { sink_(c); });
    } else {
      ++idle_;
    }
    sim_.after(slot_, [this] { on_slot(); });
  }

  sim::Simulator& sim_;
  sim::Time slot_;
  CellFifo<Cell>& fifo_;
  std::function<void(const Cell&)> sink_;
  std::uint64_t cells_ = 0;
  std::uint64_t idle_ = 0;
};

struct Push {
  sim::Time scheduled;  // when the push event is scheduled
  sim::Time at;         // when it pushes
  bool front;
};

struct Plan {
  double bps;
  double ppm;
  std::size_t capacity;
  sim::Time start;
  sim::Time deadline;
  std::vector<Push> pushes;
};

struct Outcome {
  std::vector<std::pair<sim::Time, std::uint64_t>> sent;
  std::uint64_t cells = 0;
  std::uint64_t idle = 0;
  double utilization = 0.0;
  double depth_max = 0.0;
  std::uint64_t drops = 0;
};

// Pushes are scheduled from their own random earlier instants, so the
// kernel's insertion order among simultaneous events varies trial to
// trial; that only matters on an exact tie, which plan() rules out.
template <typename Run>
void schedule_pushes(sim::Simulator& sim, const Plan& plan,
                     CellFifo<Cell>& fifo, Run start) {
  sim.at(plan.start, std::move(start));
  for (std::size_t i = 0; i < plan.pushes.size(); ++i) {
    const Push p = plan.pushes[i];
    sim.at(p.scheduled, [&sim, &fifo, p, i] {
      sim.at(p.at, [&fifo, p, i] {
        if (p.front) {
          fifo.push_front(numbered(i));
        } else {
          fifo.push(numbered(i));
        }
      });
    });
  }
}

Outcome run_event_driven(const Plan& plan) {
  sim::Simulator sim;
  Line line(sim, raw_rate(plan.bps), plan.capacity);
  line.framer.set_clock_ppm(plan.ppm);
  schedule_pushes(sim, plan, line.fifo, [&line] { line.framer.start(); });
  sim.run_until(plan.deadline);
  return {line.sent, line.framer.cells_sent(), line.framer.idle_slots(),
          line.framer.utilization(), line.fifo.max_depth(),
          line.fifo.drops() + line.fifo.priority_drops()};
}

Outcome run_polled(const Plan& plan, sim::Time slot) {
  sim::Simulator sim;
  CellFifo<Cell> fifo(sim, plan.capacity);
  std::vector<std::pair<sim::Time, std::uint64_t>> sent;
  PolledFramer framer(sim, slot, fifo, [&](const Cell& c) {
    sent.emplace_back(sim.now(), c.meta.seq);
  });
  schedule_pushes(sim, plan, fifo, [&framer] { framer.start(); });
  sim.run_until(plan.deadline);
  return {sent, framer.cells_sent(), framer.idle_slots(),
          framer.utilization(), fifo.max_depth(),
          fifo.drops() + fifo.priority_drops()};
}

Plan make_plan(std::uint64_t seed, sim::Time* slot_out) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  Plan plan;
  plan.bps = static_cast<double>(uniform(100, 2000)) * 1e6;
  plan.ppm = static_cast<double>(uniform(-50, 50));
  plan.capacity = static_cast<std::size_t>(uniform(1, 8));
  sim::Simulator probe;
  TxFramer framer(probe, raw_rate(plan.bps));
  framer.set_clock_ppm(plan.ppm);
  const sim::Time slot = framer.slot();
  *slot_out = slot;
  plan.start = uniform(0, 5 * slot);
  plan.deadline = plan.start + 80 * slot + uniform(0, slot);
  const std::int64_t n = uniform(1, 80);
  for (std::int64_t i = 0; i < n; ++i) {
    Push p;
    p.at = uniform(0, plan.start + 60 * slot);
    // No exact ties with a boundary: that is the tie rule's ground.
    if (p.at >= plan.start && (p.at - plan.start) % slot == 0) ++p.at;
    p.scheduled = uniform(0, p.at);
    p.front = uniform(0, 4) == 0;
    plan.pushes.push_back(p);
  }
  return plan;
}

TEST(TxFramerDifferential, MatchesThePolledFramerOffTies) {
  int differing = 0;
  for (std::uint64_t trial = 0; trial < 2000; ++trial) {
    sim::Time slot = 0;
    const Plan plan = make_plan(trial, &slot);
    const Outcome a = run_event_driven(plan);
    const Outcome b = run_polled(plan, slot);
    const bool same = a.sent == b.sent && a.cells == b.cells &&
                      a.idle == b.idle && a.utilization == b.utilization &&
                      a.depth_max == b.depth_max && a.drops == b.drops;
    if (!same && ++differing <= 3) {
      ADD_FAILURE() << "trial " << trial << ": sent " << a.sent.size()
                    << " vs " << b.sent.size() << ", idle " << a.idle
                    << " vs " << b.idle << ", depth_max " << a.depth_max
                    << " vs " << b.depth_max;
    }
  }
  EXPECT_EQ(differing, 0);
}

// --- The stalled-line audit ---------------------------------------------

TEST(TxFramerAudit, UnwiredProducerTripsTheStallCheck) {
  sim::Simulator sim;
  Line line(sim);
  line.framer.start();
  line.fifo.push(numbered(1));
  core::InvariantAuditor wired;
  wired.audit_tx_line(line.framer, "tx");
  EXPECT_TRUE(wired.ok()) << wired.report();
  sim.run();

  // A producer that replaces the push hook bind() installed: its cell
  // sits in the FIFO with no wake armed, and the line stays idle.
  line.fifo.set_on_push({});
  line.fifo.push(numbered(2));
  sim.run_until(sim.now() + us(10));
  EXPECT_EQ(line.sent.size(), 1u);
  core::InvariantAuditor unwired;
  unwired.audit_tx_line(line.framer, "tx");
  ASSERT_FALSE(unwired.ok());
  EXPECT_EQ(unwired.violations()[0].check, "tx line stall");

  // A stopped framer is not stalled, queued cells or not.
  line.framer.stop();
  core::InvariantAuditor stopped;
  stopped.audit_tx_line(line.framer, "tx");
  EXPECT_TRUE(stopped.ok());
}

}  // namespace
}  // namespace hni::atm
