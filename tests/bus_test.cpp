// Bus/host-memory/DMA tests: transaction timing arithmetic, FIFO
// serialization of the shared medium, PIO costs, page allocation,
// scatter/gather integrity, zero-fill-on-demand pages and pinning.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bus/dma.hpp"
#include "bus/host_memory.hpp"
#include "bus/turbochannel.hpp"
#include "sim/random.hpp"

namespace hni::bus {
namespace {

BusConfig tc_config() {
  BusConfig c;
  c.clock_hz = 25e6;          // 40 ns cycle
  c.word_bytes = 4;
  c.max_burst_words = 64;
  c.overhead_cycles = 5;
  c.read_latency_cycles = 4;
  return c;
}

TEST(BusConfig, PeakBandwidth) {
  EXPECT_DOUBLE_EQ(tc_config().peak_bytes_per_second(), 100e6);
  EXPECT_EQ(tc_config().cycle(), sim::nanoseconds(40));
}

TEST(Bus, BurstTimeArithmetic) {
  sim::Simulator sim;
  Bus bus(sim, tc_config());
  // Write burst of 64 words: (5 + 64) cycles * 40 ns = 2760 ns.
  EXPECT_EQ(bus.burst_time(64, Direction::kWrite), sim::nanoseconds(2760));
  // Read adds 4 latency cycles: 73 * 40 = 2920 ns.
  EXPECT_EQ(bus.burst_time(64, Direction::kRead), sim::nanoseconds(2920));
}

TEST(Bus, TransferSplitsIntoBursts) {
  sim::Simulator sim;
  Bus bus(sim, tc_config());
  // 100 words = one 64-word burst + one 36-word burst (writes):
  // (5+64)*40 + (5+36)*40 = 2760 + 1640 = 4400 ns.
  EXPECT_EQ(bus.transfer_time(400, Direction::kWrite),
            sim::nanoseconds(4400));
  // Zero bytes: zero time.
  EXPECT_EQ(bus.transfer_time(0, Direction::kWrite), 0);
  // Partial word rounds up: 1 byte = 1 word.
  EXPECT_EQ(bus.transfer_time(1, Direction::kWrite),
            bus.transfer_time(4, Direction::kWrite));
}

TEST(Bus, PioChargesPerWordTransaction) {
  sim::Simulator sim;
  Bus bus(sim, tc_config());
  // 53 bytes = 14 words; each write word costs (5+1)*40 = 240 ns.
  EXPECT_EQ(bus.pio_time(53, Direction::kWrite),
            14 * sim::nanoseconds(240));
  // PIO is far worse than a burst of the same size.
  EXPECT_GT(bus.pio_time(53, Direction::kWrite),
            bus.transfer_time(53, Direction::kWrite));
}

TEST(Bus, EffectiveBandwidthRisesWithBurstSize) {
  sim::Simulator sim;
  double last = 0.0;
  for (std::size_t burst : {4u, 8u, 16u, 32u, 64u, 128u}) {
    BusConfig c = tc_config();
    c.max_burst_words = burst;
    Bus bus(sim, c);
    const auto t = bus.transfer_time(65536, Direction::kWrite);
    const double bw = 65536.0 / sim::to_seconds(t);
    EXPECT_GT(bw, last) << burst;
    last = bw;
  }
  // And it approaches (never exceeds) the 100 MB/s peak.
  EXPECT_LT(last, 100e6);
  EXPECT_GT(last, 90e6);
}

TEST(Bus, TransactionsSerializeFifo) {
  sim::Simulator sim;
  Bus bus(sim, tc_config());
  std::vector<int> order;
  sim::Time t1 = 0, t2 = 0;
  bus.transfer(256, Direction::kWrite, [&] {
    order.push_back(1);
    t1 = sim.now();
  });
  bus.transfer(256, Direction::kWrite, [&] {
    order.push_back(2);
    t2 = sim.now();
  });
  sim.run();
  ASSERT_EQ(order, (std::vector<int>{1, 2}));
  // Second transfer waits for the first: completes at exactly 2x.
  EXPECT_EQ(t2, 2 * t1);
  EXPECT_EQ(bus.transfers(), 2u);
  EXPECT_EQ(bus.bytes_moved(), 512u);
}

TEST(Bus, QueueingDelayMeasured) {
  sim::Simulator sim;
  Bus bus(sim, tc_config());
  bus.transfer(4096, Direction::kWrite, [] {});
  bus.transfer(4, Direction::kWrite, [] {});
  sim.run();
  // The second request queued behind the first.
  EXPECT_GT(bus.queueing_delay_us().max(), 0.0);
}

TEST(Bus, UtilizationTracksLoad) {
  sim::Simulator sim;
  Bus bus(sim, tc_config());
  // Occupy roughly half of a 100 us window.
  const sim::Time busy = bus.transfer_time(4096, Direction::kWrite);
  bus.transfer(4096, Direction::kWrite, [] {});
  sim.run();
  sim.run_until(2 * busy);
  EXPECT_NEAR(bus.utilization(sim.now()), 0.5, 0.01);
}

TEST(Bus, RejectsBadConfig) {
  sim::Simulator sim;
  BusConfig c = tc_config();
  c.clock_hz = 0;
  EXPECT_THROW(Bus(sim, c), std::invalid_argument);
}

TEST(HostMemory, PageAccounting) {
  HostMemory mem(64 * 1024, 4096);
  EXPECT_EQ(mem.pages_total(), 16u);
  EXPECT_EQ(mem.pages_free(), 16u);
  auto page = mem.alloc_page();
  EXPECT_EQ(mem.pages_free(), 15u);
  mem.free(page);
  EXPECT_EQ(mem.pages_free(), 16u);
}

TEST(HostMemory, AllocTrimsLastPage) {
  HostMemory mem(64 * 1024, 4096);
  SgList sg = mem.alloc(10000);
  ASSERT_EQ(sg.size(), 3u);
  EXPECT_EQ(sg[0].len, 4096u);
  EXPECT_EQ(sg[1].len, 4096u);
  EXPECT_EQ(sg[2].len, 10000u - 8192u);
  EXPECT_EQ(sg_length(sg), 10000u);
  mem.free(sg);
  EXPECT_EQ(mem.pages_free(), 16u);
}

TEST(HostMemory, ExhaustionThrows) {
  HostMemory mem(2 * 4096, 4096);
  auto a = mem.alloc(8192);
  EXPECT_THROW(mem.alloc_page(), std::bad_alloc);
  mem.free(a);
  EXPECT_NO_THROW(mem.alloc_page());
}

TEST(HostMemory, StageGatherRoundtrip) {
  HostMemory mem(64 * 1024, 4096);
  const aal::Bytes data = aal::make_pattern(10000, 3);
  SgList sg = mem.stage(data);
  EXPECT_EQ(mem.gather(sg, data.size()), data);
}

TEST(HostMemory, BoundsChecked) {
  HostMemory mem(8192, 4096);
  aal::Bytes buf(16);
  EXPECT_THROW(mem.read(8190, std::span<std::uint8_t>(buf.data(), 16)),
               std::out_of_range);
  EXPECT_THROW(
      mem.write(8190, std::span<const std::uint8_t>(buf.data(), 16)),
      std::out_of_range);
  EXPECT_THROW(mem.free(BufferDescriptor{123, 4096}),
               std::invalid_argument);
}

TEST(HostMemory, RejectsSillyConstruction) {
  EXPECT_THROW(HostMemory(100, 4096), std::invalid_argument);
  EXPECT_THROW(HostMemory(4096, 0), std::invalid_argument);
}

TEST(HostMemory, NeverWrittenBytesReadZero) {
  HostMemory mem(64 * 1024, 4096);
  aal::Bytes all(64 * 1024, 0xAA);
  mem.read(0, all);
  EXPECT_TRUE(std::all_of(all.begin(), all.end(),
                          [](std::uint8_t b) { return b == 0; }));
  const aal::Bytes data = aal::make_pattern(100, 1);
  mem.write(5000, data);
  mem.read(0, all);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), all.begin() + 5000));
  EXPECT_TRUE(std::all_of(all.begin(), all.begin() + 5000,
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_TRUE(std::all_of(all.begin() + 5100, all.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

/// A seeded mix of allocations and out-of-order frees; returns every
/// address handed out, in order.
std::vector<std::uint64_t> churn(HostMemory& mem, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<SgList> held;
  std::vector<std::uint64_t> handed_out;
  for (int step = 0; step < 400; ++step) {
    if (!held.empty() && rng.uniform_int(0, 2) == 0) {
      const std::size_t i = rng.uniform_int(0, held.size() - 1);
      mem.free(held[i]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    const std::size_t bytes = rng.uniform_int(1, 3 * 4096);
    if (bytes > mem.pages_free() * mem.page_bytes()) continue;
    held.push_back(mem.alloc(bytes));
    for (const auto& b : held.back()) handed_out.push_back(b.addr);
  }
  for (const auto& sg : held) mem.free(sg);
  return handed_out;
}

TEST(HostMemory, PinningKeepsContentsAndAllocationOrder) {
  HostMemory plain(256 * 1024, 4096);
  HostMemory pinned(256 * 1024, 4096);
  const aal::Bytes data = aal::make_pattern(3 * 4096 + 17, 2);
  plain.write(4096 - 5, data);
  pinned.write(4096 - 5, data);
  pinned.pin(8);
  pinned.pin(1000);  // beyond the store: clamped
  aal::Bytes a(256 * 1024), b(256 * 1024);
  plain.read(0, a);
  pinned.read(0, b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(pinned.pages_touched(), 0u);
  EXPECT_EQ(churn(plain, 7), churn(pinned, 7));
  EXPECT_EQ(plain.pages_touched(), pinned.pages_touched());
}

TEST(HostMemory, UnusedPageHandedOutOnlyPastThePeak) {
  HostMemory mem(256 * 1024, 4096);
  std::vector<std::uint64_t> held;
  std::size_t peak = 0;
  std::uint64_t highest = 0;
  sim::Rng rng(11);
  for (int step = 0; step < 5000; ++step) {
    if (!held.empty() && (mem.pages_free() == 0 || rng.uniform_int(0, 1))) {
      const std::size_t i = rng.uniform_int(0, held.size() - 1);
      mem.free(BufferDescriptor{held[i], 4096});
      held[i] = held.back();
      held.pop_back();
      continue;
    }
    const BufferDescriptor page = mem.alloc_page();
    held.push_back(page.addr);
    if (held.size() > peak) {
      // A new peak takes the next never-used page.
      peak = held.size();
      EXPECT_EQ(page.addr, (peak - 1) * 4096u);
    } else {
      // Otherwise a page that has been out before.
      EXPECT_LT(page.addr, peak * 4096u);
    }
    highest = std::max(highest, page.addr);
    ASSERT_EQ(mem.pages_touched(), peak);
    ASSERT_EQ(highest / 4096 + 1, peak);
  }
  EXPECT_GT(peak, 8u);
}

TEST(DmaEngine, ReadReturnsWindowedBytes) {
  sim::Simulator sim;
  Bus bus(sim, tc_config());
  HostMemory mem(64 * 1024, 4096);
  DmaEngine dma(bus, mem);
  const aal::Bytes data = aal::make_pattern(9000, 5);
  SgList sg = mem.stage(data);

  aal::Bytes got(3000);
  bool done = false;
  dma.read(sg, 4000, got, [&] { done = true; });
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin() + 4000));
  EXPECT_EQ(dma.reads(), 1u);
  EXPECT_EQ(dma.bytes_read(), 3000u);
}

TEST(DmaEngine, WriteLandsAtOffset) {
  sim::Simulator sim;
  Bus bus(sim, tc_config());
  HostMemory mem(64 * 1024, 4096);
  DmaEngine dma(bus, mem);
  SgList sg = mem.alloc(9000);
  const aal::Bytes payload = aal::make_pattern(1000, 6);
  bool done = false;
  dma.write(sg, 5000, payload, [&] { done = true; });
  sim.run();
  ASSERT_TRUE(done);
  const aal::Bytes all = mem.gather(sg, 9000);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), all.begin() + 5000));
  EXPECT_EQ(dma.writes(), 1u);
  EXPECT_EQ(dma.bytes_written(), 1000u);
}

TEST(DmaEngine, WindowBeyondListThrows) {
  sim::Simulator sim;
  Bus bus(sim, tc_config());
  HostMemory mem(64 * 1024, 4096);
  DmaEngine dma(bus, mem);
  SgList sg = mem.alloc(100);
  aal::Bytes got(100);
  dma.read(sg, 50, got, [] { FAIL(); });
  EXPECT_THROW(sim.run(), std::out_of_range);
}

TEST(DmaEngine, CompletionTimeMatchesBusArithmetic) {
  sim::Simulator sim;
  Bus bus(sim, tc_config());
  HostMemory mem(64 * 1024, 4096);
  DmaEngine dma(bus, mem);
  SgList sg = mem.alloc(4096);
  sim::Time done_at = 0;
  const aal::Bytes payload(4096, 1);
  dma.write(sg, 0, payload, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(done_at, bus.transfer_time(4096, Direction::kWrite));
}

}  // namespace
}  // namespace hni::bus
