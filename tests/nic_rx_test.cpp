// RX path tests: delivery correctness, HEC handling, unknown VCs, FIFO
// overflow under overload, board-memory exhaustion, host-buffer
// exhaustion, interrupt coalescing, latency accounting.

#include <gtest/gtest.h>

#include <vector>

#include "aal/sar.hpp"
#include "nic/rx_path.hpp"

namespace hni::nic {
namespace {

net::WireCell wire_of(const atm::Cell& cell) {
  net::WireCell w;
  w.bytes = cell.serialize(atm::HeaderFormat::kUni);
  w.meta = cell.meta;
  return w;
}

struct Fixture {
  sim::Simulator sim;
  bus::Bus bus{sim, bus::BusConfig{}};
  bus::HostMemory mem{1u << 20, 4096};
  proc::FirmwareProfile fw{};
  RxPathConfig cfg{};
  std::unique_ptr<RxPath> rx;

  explicit Fixture(RxPathConfig c = {}) : cfg(c) {
    rx = std::make_unique<RxPath>(sim, bus, mem, fw, cfg);
  }

  /// Injects the cells of one AAL5 PDU, spaced `gap` apart.
  void inject(const std::vector<atm::Cell>& cells,
              sim::Time gap = sim::microseconds(3)) {
    sim::Time t = sim.now();
    for (auto cell : cells) {
      cell.meta.created = t;
      sim.at(t, [this, cell] { rx->receive_wire(wire_of(cell)); });
      t += gap;
    }
  }
};

TEST(RxPath, DeliversSduToHostMemory) {
  Fixture f;
  f.rx->open_vc({0, 9}, aal::AalType::kAal5);
  const aal::Bytes sdu = aal::make_pattern(2000, 1);
  f.inject(aal::aal5_segment(sdu, {0, 9}));

  std::vector<RxDelivery> got;
  f.rx->set_deliver([&](RxDelivery d) { got.push_back(std::move(d)); });
  f.sim.run_until(sim::milliseconds(2));

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].len, sdu.size());
  EXPECT_EQ(f.mem.gather(got[0].sg, got[0].len), sdu);
  EXPECT_EQ(f.rx->pdus_delivered(), 1u);
  EXPECT_EQ(f.rx->pdus_errored(), 0u);
  EXPECT_TRUE(got[0].first_of_batch);
  EXPECT_EQ(got[0].interrupt_batch, 1u);
}

TEST(RxPath, ReassemblyBuffersGrowToTheLargestPduNotMaxSdu) {
  Fixture f;
  f.rx->open_vc({0, 9}, aal::AalType::kAal5);
  std::size_t delivered = 0;
  f.rx->set_deliver([&](RxDelivery) { ++delivered; });
  for (std::uint64_t k = 0; k < 4; ++k) {
    f.inject(aal::aal5_segment(aal::make_pattern(40, k), {0, 9}));
    f.sim.run_until(f.sim.now() + sim::milliseconds(1));
  }
  ASSERT_EQ(delivered, 4u);
  // One-cell PDUs need one cell's worth of buffer, not the 65,568
  // octets an AAL5 maximum would reserve.
  EXPECT_GT(f.rx->buffers().high_water(), 0u);
  EXPECT_LT(f.rx->buffers().high_water(), 4 * atm::kPayloadSize);

  f.inject(aal::aal5_segment(aal::make_pattern(9180, 9), {0, 9}));
  f.sim.run_until(f.sim.now() + sim::milliseconds(2));
  ASSERT_EQ(delivered, 5u);
  EXPECT_GE(f.rx->buffers().high_water(), aal::aal5_cell_count(9180) *
                                               atm::kPayloadSize);
  EXPECT_LT(f.rx->buffers().high_water(), aal::kAal5MaxSdu);
}

TEST(RxPath, Aal34DeliveriesGiveBackOnlyWhatTheyTook) {
  Fixture f;
  f.rx->open_vc({0, 2}, aal::AalType::kAal34);
  std::size_t delivered = 0;
  f.rx->set_deliver([&](RxDelivery) { ++delivered; });
  aal::Aal34Segmenter seg({0, 2});
  for (std::uint64_t k = 0; k < 50; ++k) {
    f.inject(seg.segment(aal::make_pattern(900, k)), sim::microseconds(4));
    f.sim.run_until(f.sim.now() + sim::milliseconds(1));
  }
  ASSERT_EQ(delivered, 50u);
  // Each landed SDU's buffer came from the pool, so one buffer serves
  // every PDU instead of the free list growing by one per PDU.
  EXPECT_EQ(f.rx->buffers().free_buffers(), 1u);
  EXPECT_GE(f.rx->buffers().high_water(), 900u);
}

TEST(RxPath, MultiplePdusMultipleVcs) {
  Fixture f;
  f.rx->open_vc({0, 1}, aal::AalType::kAal5);
  f.rx->open_vc({0, 2}, aal::AalType::kAal34);
  const aal::Bytes sdu1 = aal::make_pattern(700, 1);
  const aal::Bytes sdu2 = aal::make_pattern(900, 2);
  f.inject(aal::aal5_segment(sdu1, {0, 1}));
  aal::Aal34Segmenter seg34({0, 2});
  f.inject(seg34.segment(sdu2), sim::microseconds(4));

  std::vector<std::pair<atm::VcId, aal::Bytes>> got;
  f.rx->set_deliver([&](RxDelivery d) {
    got.emplace_back(d.vc, f.mem.gather(d.sg, d.len));
  });
  f.sim.run_until(sim::milliseconds(3));

  ASSERT_EQ(got.size(), 2u);
  // Order can vary with interleaving; find by VC.
  for (const auto& [vc, bytes] : got) {
    if (vc == atm::VcId{0, 1}) {
      EXPECT_EQ(bytes, sdu1);
    } else {
      EXPECT_EQ(vc, (atm::VcId{0, 2}));
      EXPECT_EQ(bytes, sdu2);
    }
  }
}

TEST(RxPath, HecCorrectedHeaderStillDelivers) {
  Fixture f;
  f.rx->open_vc({0, 9}, aal::AalType::kAal5);
  const aal::Bytes sdu = aal::make_pattern(100, 5);
  auto cells = aal::aal5_segment(sdu, {0, 9});

  std::size_t delivered = 0;
  f.rx->set_deliver([&](RxDelivery) { ++delivered; });

  sim::Time t = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    net::WireCell w = wire_of(cells[i]);
    if (i == 0) w.bytes[1] ^= 0x04;  // single header bit error
    f.sim.at(t, [&f, w] { f.rx->receive_wire(w); });
    t += sim::microseconds(3);
  }
  f.sim.run_until(sim::milliseconds(1));
  EXPECT_EQ(f.rx->cells_hec_corrected(), 1u);
  EXPECT_EQ(delivered, 1u);
}

TEST(RxPath, ConsecutiveHeaderErrorsDiscardSecond) {
  Fixture f;
  f.rx->open_vc({0, 9}, aal::AalType::kAal5);
  auto cells = aal::aal5_segment(aal::make_pattern(300, 5), {0, 9});
  ASSERT_GE(cells.size(), 3u);

  sim::Time t = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    net::WireCell w = wire_of(cells[i]);
    if (i == 0 || i == 1) w.bytes[0] ^= 0x02;  // two errored headers
    f.sim.at(t, [&f, w] { f.rx->receive_wire(w); });
    t += sim::microseconds(3);
  }
  f.sim.run_until(sim::milliseconds(1));
  EXPECT_EQ(f.rx->cells_hec_corrected(), 1u);
  EXPECT_EQ(f.rx->cells_hec_discarded(), 1u);
}

TEST(RxPath, UnknownVcCounted) {
  Fixture f;  // no VC opened
  f.inject(aal::aal5_segment(aal::make_pattern(100, 1), {3, 3}));
  f.sim.run_until(sim::milliseconds(1));
  EXPECT_EQ(f.rx->cells_no_vc(), 3u);
  EXPECT_EQ(f.rx->pdus_delivered(), 0u);
}

TEST(RxPath, FifoOverflowsWhenEngineTooSlow) {
  RxPathConfig cfg;
  cfg.fifo_cells = 4;
  cfg.engine.clock_hz = 1e6;  // absurdly slow engine: 22 us per cell
  Fixture f(cfg);
  f.rx->open_vc({0, 9}, aal::AalType::kAal5);
  // Back-to-back cells at 1 us spacing overwhelm it.
  f.inject(aal::aal5_segment(aal::make_pattern(9180, 1), {0, 9}),
           sim::microseconds(1));
  f.sim.run_until(sim::milliseconds(10));
  EXPECT_GT(f.rx->cells_fifo_dropped(), 0u);
  EXPECT_EQ(f.rx->pdus_delivered(), 0u);  // PDU cannot survive the losses
  EXPECT_GE(f.rx->fifo().max_depth(), 4.0);
}

TEST(RxPath, BoardExhaustionDropsPdu) {
  RxPathConfig cfg;
  cfg.board.containers = 2;
  cfg.board.cells_per_container = 4;  // 8 cells of board memory
  Fixture f(cfg);
  f.rx->open_vc({0, 9}, aal::AalType::kAal5);
  f.inject(aal::aal5_segment(aal::make_pattern(2000, 1), {0, 9}));  // 42 cells
  f.sim.run_until(sim::milliseconds(2));
  EXPECT_GT(f.rx->pdus_dropped_board(), 0u);
  EXPECT_EQ(f.rx->pdus_delivered(), 0u);
}

TEST(RxPath, HostBufferExhaustionCounted) {
  Fixture f;
  f.rx->post_pages(0);  // the host never posts a receive buffer
  f.rx->open_vc({0, 9}, aal::AalType::kAal5);
  f.inject(aal::aal5_segment(aal::make_pattern(500, 1), {0, 9}));
  f.sim.run_until(sim::milliseconds(2));
  EXPECT_EQ(f.rx->pdus_dropped_host_buffers(), 1u);
  EXPECT_EQ(f.rx->pdus_delivered(), 0u);
  EXPECT_EQ(f.rx->rx_pages_posted(), 0u);
}

TEST(RxPath, StandalonePathPostsAllFreeHostPages) {
  Fixture f;
  EXPECT_EQ(f.rx->rx_pages_posted(), f.mem.pages_free());
  f.rx->open_vc({0, 9}, aal::AalType::kAal5);
  std::vector<RxDelivery> got;
  f.rx->set_deliver([&](RxDelivery d) { got.push_back(std::move(d)); });
  f.inject(aal::aal5_segment(aal::make_pattern(5000, 1), {0, 9}));
  f.sim.run_until(sim::milliseconds(2));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(f.rx->rx_pages_posted(), f.mem.pages_free());  // 2 drawn
  f.rx->repost(got[0].sg);
  EXPECT_EQ(f.rx->rx_pages_posted(), f.mem.pages_total());
}

TEST(RxPath, ReassemblyErrorsCountedByKind) {
  Fixture f;
  f.rx->open_vc({0, 9}, aal::AalType::kAal5);
  auto cells = aal::aal5_segment(aal::make_pattern(500, 1), {0, 9});
  cells.erase(cells.begin() + 1);  // lost cell -> CRC failure at EOM
  f.inject(cells);
  f.sim.run_until(sim::milliseconds(2));
  EXPECT_EQ(f.rx->pdus_errored(), 1u);
  EXPECT_EQ(f.rx->error_count(aal::ReassemblyError::kCrc) +
                f.rx->error_count(aal::ReassemblyError::kLength),
            1u);
}

TEST(RxPath, InterruptCoalescingBatchesPdus) {
  RxPathConfig cfg;
  cfg.interrupt_coalesce = sim::milliseconds(1);
  Fixture f(cfg);
  f.rx->open_vc({0, 9}, aal::AalType::kAal5);
  // Three small PDUs arriving close together.
  sim::Time t = 0;
  for (int k = 0; k < 3; ++k) {
    auto cells = aal::aal5_segment(aal::make_pattern(100, k), {0, 9});
    for (const auto& cell : cells) {
      f.sim.at(t, [&f, cell] { f.rx->receive_wire(wire_of(cell)); });
      t += sim::microseconds(3);
    }
  }
  std::size_t deliveries = 0;
  f.rx->set_deliver([&](RxDelivery) { ++deliveries; });
  f.sim.run_until(sim::milliseconds(5));
  EXPECT_EQ(deliveries, 3u);
  EXPECT_EQ(f.rx->interrupts().interrupts(), 1u);
  EXPECT_DOUBLE_EQ(f.rx->interrupts().batching(), 3.0);
}

TEST(RxPath, LatencyMeasuredFromFirstCell) {
  Fixture f;
  f.rx->open_vc({0, 9}, aal::AalType::kAal5);
  f.inject(aal::aal5_segment(aal::make_pattern(1000, 1), {0, 9}));
  f.sim.run_until(sim::milliseconds(2));
  ASSERT_EQ(f.rx->pdu_latency_us().count(), 1u);
  // 21 cells spaced 3 us: at least 60 us of arrival spread.
  EXPECT_GT(f.rx->pdu_latency_us().mean(), 60.0);
}

TEST(RxPath, CloseVcStopsDelivery) {
  Fixture f;
  f.rx->open_vc({0, 9}, aal::AalType::kAal5);
  f.rx->close_vc({0, 9});
  f.inject(aal::aal5_segment(aal::make_pattern(100, 1), {0, 9}));
  f.sim.run_until(sim::milliseconds(1));
  EXPECT_EQ(f.rx->pdus_delivered(), 0u);
  EXPECT_GT(f.rx->cells_no_vc(), 0u);
}

TEST(RxPath, EngineInstructionAccounting) {
  Fixture f;
  f.rx->open_vc({0, 9}, aal::AalType::kAal5);
  const std::size_t n = 1000;  // 21 cells
  f.inject(aal::aal5_segment(aal::make_pattern(n, 1), {0, 9}));
  f.sim.run_until(sim::milliseconds(2));
  const std::size_t cells = aal::aal5_cell_count(n);
  const std::uint64_t expect =
      static_cast<std::uint64_t>(cells - 2) *
          proc::rx_cell_instructions(f.fw, aal::AalType::kAal5,
                                     {false, false}) +
      proc::rx_cell_instructions(f.fw, aal::AalType::kAal5, {true, false}) +
      proc::rx_cell_instructions(f.fw, aal::AalType::kAal5, {false, true}) +
      proc::rx_pdu_instructions(f.fw);
  EXPECT_EQ(f.rx->engine().instructions_retired(), expect);
}

}  // namespace
}  // namespace hni::nic
