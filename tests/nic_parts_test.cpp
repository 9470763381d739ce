// Tests for the NIC's building blocks: cell FIFO, board buffer manager,
// VC table, interrupt controller.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "atm/cell.hpp"
#include "atm/fifo.hpp"
#include "nic/buffer_mgr.hpp"
#include "nic/interrupt.hpp"
#include "sim/flat_table.hpp"

namespace hni::nic {
namespace {

using atm::CellFifo;

TEST(CellFifo, PushPopFifoOrder) {
  sim::Simulator sim;
  CellFifo<int> f(sim, 4);
  EXPECT_TRUE(f.empty());
  f.push(1);
  f.push(2);
  f.push(3);
  EXPECT_EQ(f.size(), 3u);
  EXPECT_EQ(f.pop(), 1);
  EXPECT_EQ(f.pop(), 2);
  EXPECT_EQ(f.pop(), 3);
  EXPECT_FALSE(f.pop().has_value());
}

TEST(CellFifo, DropsWhenFull) {
  sim::Simulator sim;
  CellFifo<int> f(sim, 2);
  EXPECT_TRUE(f.push(1));
  EXPECT_TRUE(f.push(2));
  EXPECT_TRUE(f.full());
  EXPECT_FALSE(f.push(3));
  EXPECT_EQ(f.drops(), 1u);
  EXPECT_EQ(f.size(), 2u);
}

TEST(CellFifo, OnPushFiresPerPush) {
  sim::Simulator sim;
  CellFifo<int> f(sim, 4);
  int wakeups = 0;
  f.set_on_push([&] { ++wakeups; });
  f.push(1);
  f.push(2);
  EXPECT_EQ(wakeups, 2);
}

TEST(CellFifo, SpaceWaitersReleasedOnePerPop) {
  sim::Simulator sim;
  CellFifo<int> f(sim, 1);
  f.push(1);
  std::vector<int> released;
  int next_id = 0;
  auto wait = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const int id = next_id++;
      f.wait_space([&released, id] { released.push_back(id); });
    }
  };
  // One pop frees the slot and releases one waiter; the push refills it.
  auto pop_and_refill = [&](int n) {
    for (int i = 0; i < n; ++i) {
      f.pop();
      f.push(1);
    }
  };
  wait(2);
  EXPECT_TRUE(released.empty());
  f.pop();
  EXPECT_EQ(released.size(), 1u);
  f.pop();  // empty pop: no release
  EXPECT_EQ(released.size(), 1u);
  f.push(2);
  f.pop();
  EXPECT_EQ(released.size(), 2u);

  // More waiters than the ring first holds, with pops in between, so
  // the waiter ring wraps before it grows and wraps again after.
  f.push(1);
  wait(6);
  pop_and_refill(3);
  wait(7);
  pop_and_refill(5);
  wait(9);
  pop_and_refill(4);
  wait(3);
  pop_and_refill(next_id - static_cast<int>(released.size()));
  std::vector<int> expected(static_cast<std::size_t>(next_id));
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(released, expected);
  f.pop();  // no waiter left
  EXPECT_EQ(released.size(), expected.size());
}

TEST(CellFifo, OccupancyStats) {
  sim::Simulator sim;
  CellFifo<int> f(sim, 8);
  sim.at(0, [&] { f.push(1); });
  sim.at(10, [&] { f.push(2); });
  sim.at(20, [&] {
    f.pop();
    f.pop();
  });
  sim.run();
  sim.run_until(40);
  EXPECT_DOUBLE_EQ(f.max_depth(), 2.0);
  // depth: 1 over [0,10), 2 over [10,20), 0 over [20,40) -> mean 0.75
  EXPECT_DOUBLE_EQ(f.mean_depth(), 0.75);
}

TEST(BoardMemory, ChainsGrowByContainer) {
  sim::Simulator sim;
  BoardMemory bm(sim, {.containers = 4, .cells_per_container = 2});
  EXPECT_TRUE(bm.add_cell(1));
  EXPECT_EQ(bm.containers_in_use(), 1u);
  EXPECT_TRUE(bm.add_cell(1));  // fills container 1
  EXPECT_EQ(bm.containers_in_use(), 1u);
  EXPECT_TRUE(bm.add_cell(1));  // needs a second container
  EXPECT_EQ(bm.containers_in_use(), 2u);
  EXPECT_EQ(bm.chain_containers(1), 2u);
}

TEST(BoardMemory, ExhaustionRefusesWithoutCorruption) {
  sim::Simulator sim;
  BoardMemory bm(sim, {.containers = 2, .cells_per_container = 1});
  EXPECT_TRUE(bm.add_cell(1));
  EXPECT_TRUE(bm.add_cell(2));
  EXPECT_FALSE(bm.add_cell(3));
  EXPECT_EQ(bm.alloc_failures(), 1u);
  EXPECT_EQ(bm.containers_in_use(), 2u);
  bm.release(1);
  EXPECT_TRUE(bm.add_cell(3));
}

TEST(BoardMemory, ReleaseReturnsAllContainers) {
  sim::Simulator sim;
  BoardMemory bm(sim, {.containers = 8, .cells_per_container = 2});
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(bm.add_cell(7));
  EXPECT_EQ(bm.containers_in_use(), 3u);
  bm.release(7);
  EXPECT_EQ(bm.containers_in_use(), 0u);
  EXPECT_EQ(bm.chain_containers(7), 0u);
  bm.release(7);  // double release is harmless
}

TEST(BoardMemory, PeakTracked) {
  sim::Simulator sim;
  BoardMemory bm(sim, {.containers = 8, .cells_per_container = 1});
  bm.add_cell(1);
  bm.add_cell(2);
  bm.add_cell(3);
  bm.release(1);
  bm.release(2);
  EXPECT_DOUBLE_EQ(bm.peak_in_use(), 3.0);
  EXPECT_EQ(bm.containers_in_use(), 1u);
}

TEST(BoardMemoryConfig, ByteArithmetic) {
  BoardMemoryConfig c{.containers = 10, .cells_per_container = 32};
  EXPECT_EQ(c.container_bytes(), 32 * 48 + kContainerOverheadBytes);
  EXPECT_EQ(c.total_bytes(), 10 * (32 * 48 + kContainerOverheadBytes));
}

TEST(VcTable, ProbeCountStaysBoundedAsTableGrows) {
  // The receive path's VC table is a sim::FlatMap keyed on
  // atm::vc_label. The old fixed-bucket table turned probe cost into a
  // config knob (N entries on one chain -> N-1 probes). The robin-hood
  // table grows itself and keeps displacement near-constant: even
  // starting from the smallest index, thousands of sequential VCIs (the
  // adversarial allocation pattern) must stay within a handful of extra
  // probes.
  sim::FlatMap<std::uint32_t, int> t(1);
  constexpr std::uint32_t kVcs = 4096;
  const auto vc = [](std::uint32_t i) {
    return atm::VcId{static_cast<std::uint16_t>(i >> 12),
                     static_cast<std::uint16_t>(i & 0xFFF)};
  };
  for (std::uint32_t i = 0; i < kVcs; ++i) {
    t.insert(atm::vc_label(vc(i)), static_cast<int>(i));
  }
  std::uint32_t max_probes = 0;
  for (std::uint32_t i = 0; i < kVcs; ++i) {
    const auto f = t.find(atm::vc_label(vc(i)));
    ASSERT_NE(f.value, nullptr);
    EXPECT_EQ(*f.value, static_cast<int>(i));
    max_probes = std::max(max_probes, f.extra_probes);
  }
  // Robin-hood at a 7/8 load ceiling keeps the expected maximum probe
  // length O(log n); 16 is far above anything a healthy mixer produces.
  EXPECT_LE(max_probes, 16u);
  // A lone entry always sits at home: the engine charge for the common
  // small-population case is exactly the CAM-assist baseline.
  sim::FlatMap<std::uint32_t, int> one(64);
  one.insert(atm::vc_label({0, 100}), 1);
  EXPECT_EQ(one.find(atm::vc_label({0, 100})).extra_probes, 0u);
}

TEST(InterruptController, ZeroWindowBatchesSameInstant) {
  sim::Simulator sim;
  InterruptController ic(sim, 0);
  std::vector<std::size_t> batches;
  ic.set_handler([&](std::size_t n) { batches.push_back(n); });
  sim.at(10, [&] {
    ic.post();
    ic.post();
    ic.post();
  });
  sim.run();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0], 3u);
  EXPECT_EQ(ic.events(), 3u);
  EXPECT_EQ(ic.interrupts(), 1u);
  EXPECT_DOUBLE_EQ(ic.batching(), 3.0);
}

TEST(InterruptController, WindowCoalescesAcrossTime) {
  sim::Simulator sim;
  InterruptController ic(sim, sim::microseconds(10));
  std::vector<std::size_t> batches;
  ic.set_handler([&](std::size_t n) { batches.push_back(n); });
  sim.at(0, [&] { ic.post(); });
  sim.at(sim::microseconds(5), [&] { ic.post(); });
  sim.at(sim::microseconds(30), [&] { ic.post(); });
  sim.run();
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0], 2u);  // events at 0 and 5 us share one interrupt
  EXPECT_EQ(batches[1], 1u);
}

TEST(InterruptController, SeparateInstantsSeparateInterrupts) {
  sim::Simulator sim;
  InterruptController ic(sim, 0);
  int interrupts = 0;
  ic.set_handler([&](std::size_t) { ++interrupts; });
  sim.at(10, [&] { ic.post(); });
  sim.at(20, [&] { ic.post(); });
  sim.run();
  EXPECT_EQ(interrupts, 2);
}

}  // namespace
}  // namespace hni::nic
