// Unit tests for the simulation kernel: time arithmetic, event
// ordering, cancellation, the statistics primitives and the FIFO ring.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace hni::sim {
namespace {

TEST(Time, UnitConversions) {
  EXPECT_EQ(nanoseconds(1), 1'000);
  EXPECT_EQ(microseconds(1), 1'000'000);
  EXPECT_EQ(milliseconds(1), 1'000'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(7)), 7.0);
  EXPECT_DOUBLE_EQ(to_nanoseconds(nanoseconds(9)), 9.0);
}

TEST(Time, CycleTime) {
  EXPECT_EQ(cycle_time(25e6), 40'000);   // 25 MHz -> 40 ns
  EXPECT_EQ(cycle_time(100e6), 10'000);  // 100 MHz -> 10 ns
  EXPECT_EQ(cycle_time(1e12), 1);        // 1 THz -> 1 ps
}

TEST(Time, SerializationTime) {
  // One 53-octet cell at exactly 424 Mb/s takes 1 us.
  EXPECT_EQ(serialization_time(424, 424e6), 1'000'000);
  // STS-3c payload rate: 424 bits / 149.76 Mb/s = 2.8312 us.
  const Time slot = serialization_time(424, 149.76e6);
  EXPECT_NEAR(static_cast<double>(slot), 2.8312e6, 100.0);
}

TEST(Time, FormatAdaptiveUnits) {
  EXPECT_EQ(format_time(picoseconds(500)), "500 ps");
  EXPECT_EQ(format_time(nanoseconds(2)), "2 ns");
  EXPECT_EQ(format_time(microseconds(3)), "3 us");
  EXPECT_EQ(format_time(milliseconds(4)), "4 ms");
  EXPECT_EQ(format_time(seconds(5)), "5 s");
  EXPECT_EQ(format_time(-microseconds(1)), "-1 us");
}

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.at(100, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ReservedSeqOrdersAsIfScheduledAtReservation) {
  Simulator sim;
  std::vector<int> order;
  auto log = [&order](int tag) { return [&order, tag] { order.push_back(tag); }; };
  sim.at(10, log(1));  // scheduled before the reservation
  const std::uint64_t seq = sim.reserve_seq();
  sim.at(10, log(3));  // after the reservation, before the arming
  sim.at(5, [&] {
    sim.at(10, log(4));  // also before the arming
    sim.at_reserved(10, seq, log(2));
    sim.at(10, log(5));  // after the arming
  });
  sim.run();
  // The reserved event takes its place at the reservation, not at the
  // arming: ahead of every same-instant event scheduled in between.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.events_fired(), 6u);
}

TEST(Simulator, AfterIsRelative) {
  Simulator sim;
  Time seen = -1;
  sim.at(500, [&] {
    sim.after(250, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 750);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.at(100, [&] {
    EXPECT_THROW(sim.at(50, [] {}), std::logic_error);
  });
  sim.run();
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.at(10, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelTwiceReportsFalse) {
  Simulator sim;
  EventHandle h = sim.at(10, [] {});
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
  sim.run();
}

TEST(Simulator, CancelInvalidHandleIsNoop) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(20, [&] { ++fired; });
  sim.at(30, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.run_until(100), 1u);
  EXPECT_EQ(fired, 3);
  // With the queue drained, now() advances to the deadline.
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RunUntilInclusiveOfDeadline) {
  Simulator sim;
  bool fired = false;
  sim.at(50, [&] { fired = true; });
  sim.run_until(50);
  EXPECT_TRUE(fired);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) sim.after(1, chain);
  };
  sim.after(1, chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.events_fired(), 100u);
}

TEST(Simulator, CensusCountsEachLayerAndSumsToTotal) {
  Simulator sim;
  sim.at(1, [] {}, Layer::kFramer);
  sim.at(2, [] {}, Layer::kFramer);
  sim.after(3, [] {}, Layer::kLink);
  sim.at(4, Action([] {}), Layer::kOam);
  sim.at(5, [] {});  // untagged: the timer layer
  const EventHandle cancelled = sim.at(6, [] {}, Layer::kSwitch);
  sim.cancel(cancelled);
  sim.at(7, [&sim] { sim.after(1, [] {}, Layer::kHost); }, Layer::kSig);
  sim.step();  // step() counts like run()
  sim.run_until(7);
  sim.run();

  const Census& c = sim.census();
  EXPECT_EQ(c[static_cast<std::size_t>(Layer::kFramer)], 2u);
  EXPECT_EQ(c[static_cast<std::size_t>(Layer::kLink)], 1u);
  EXPECT_EQ(c[static_cast<std::size_t>(Layer::kOam)], 1u);
  EXPECT_EQ(c[static_cast<std::size_t>(Layer::kTimer)], 1u);
  EXPECT_EQ(c[static_cast<std::size_t>(Layer::kSwitch)], 0u);  // cancelled
  EXPECT_EQ(c[static_cast<std::size_t>(Layer::kSig)], 1u);
  EXPECT_EQ(c[static_cast<std::size_t>(Layer::kHost)], 1u);
  std::uint64_t sum = 0;
  for (const std::uint64_t n : c) sum += n;
  EXPECT_EQ(sum, sim.events_fired());
  EXPECT_EQ(sim.events_fired(), 7u);
}

TEST(Simulator, LayerNamesAreDistinct) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    names.insert(layer_name(static_cast<Layer>(i)));
  }
  EXPECT_EQ(names.size(), kLayerCount);
  EXPECT_STREQ(layer_name(Layer::kTxEngine), "tx_engine");
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.at(1, [&] { ++fired; });
  sim.at(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(RunningStat, MatchesDirectComputation) {
  const std::vector<double> xs{3.0, 1.5, 4.25, -2.0, 0.0, 9.5};
  RunningStat s;
  for (double x : xs) s.add(x);
  const double mean =
      std::accumulate(xs.begin(), xs.end(), 0.0) / xs.size();
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.5);
}

TEST(RunningStat, EmptyAndSingle) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Histogram, PercentilesAndOverflow) {
  Histogram h(1.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i % 10) + 0.5);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.percentile(50), 5.0, 0.51);
  EXPECT_NEAR(h.percentile(100), 10.0, 0.01);
  h.add(1e9);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 0), std::invalid_argument);
}

TEST(TimeWeightedStat, IntegratesPiecewiseConstant) {
  TimeWeightedStat s;
  s.set(0, 2.0);    // 2.0 over [0,10)
  s.set(10, 6.0);   // 6.0 over [10,20)
  EXPECT_DOUBLE_EQ(s.mean(20), (2.0 * 10 + 6.0 * 10) / 20.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.current(), 6.0);
}

TEST(TimeWeightedStat, UnsetReturnsZero) {
  TimeWeightedStat s;
  EXPECT_DOUBLE_EQ(s.mean(100), 0.0);
}

TEST(Rng, Determinism) {
  Rng a(123), b(123);
  for (int i = 0; i < 32; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, ForkIndependence) {
  Rng a(123);
  Rng fork = a.fork();
  // Fork must not replay the parent stream.
  bool differs = false;
  Rng c(123);
  (void)c.fork();
  for (int i = 0; i < 16; ++i) {
    if (fork.uniform() != c.uniform()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(40.0);
  EXPECT_NEAR(sum / n, 40.0, 1.5);
}

TEST(Rng, ChanceFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Ring, FifoAcrossWrapAndGrowth) {
  Ring<int> ring;
  int next_in = 0;
  int next_out = 0;
  // Slide the window round the buffer, then grow it mid-wrap.
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 5; ++k) ring.push_back(next_in++);
    for (int k = 0; k < 4; ++k) EXPECT_EQ(ring.take_front(), next_out++);
  }
  while (!ring.empty()) EXPECT_EQ(ring.take_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(Ring, EraseIfKeepsTheRestInOrder) {
  Ring<int> ring;
  for (int i = 0; i < 8; ++i) ring.push_back(i);  // fills the first buffer
  for (int i = 0; i < 3; ++i) ring.pop_front();
  for (int i = 8; i < 11; ++i) ring.push_back(i);  // wraps, still full
  ring.erase_if([](int v) { return v % 3 == 0; });
  std::vector<int> left;
  while (!ring.empty()) left.push_back(ring.take_front());
  EXPECT_EQ(left, (std::vector<int>{4, 5, 7, 8, 10}));
}

}  // namespace
}  // namespace hni::sim
