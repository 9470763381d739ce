// TX path tests: descriptor ring, DMA staging, cell production, framer
// pacing, FIFO backpressure, and the per-cell DMA ablation mode.

#include <gtest/gtest.h>

#include <vector>

#include "aal/sar.hpp"
#include "nic/tx_path.hpp"

namespace hni::nic {
namespace {

struct Fixture {
  sim::Simulator sim;
  bus::Bus bus{sim, bus::BusConfig{}};
  bus::HostMemory mem{1u << 20, 4096};
  proc::FirmwareProfile fw{};

  std::unique_ptr<TxPath> make(TxPathConfig cfg = {},
                               atm::LineRate line = atm::sts3c()) {
    return std::make_unique<TxPath>(sim, bus, mem, fw, cfg, line);
  }
};

TxDescriptor descriptor_for(bus::HostMemory& mem, const aal::Bytes& sdu,
                            atm::VcId vc,
                            aal::AalType aal = aal::AalType::kAal5) {
  TxDescriptor d;
  d.sg = mem.stage(sdu);
  d.len = sdu.size();
  d.vc = vc;
  d.aal = aal;
  return d;
}

TEST(TxPath, ProducesExactSegmentationOnTheWire) {
  Fixture f;
  auto tx = f.make();
  const aal::Bytes sdu = aal::make_pattern(1000, 3);
  const atm::VcId vc{0, 7};

  std::vector<atm::Cell> wire;
  tx->framer().set_sink([&](const atm::Cell& c) { wire.push_back(c); });
  tx->start();
  ASSERT_TRUE(tx->post(descriptor_for(f.mem, sdu, vc)));
  f.sim.run_until(sim::milliseconds(2));

  // The wire must carry exactly what a reference segmenter produces.
  aal::FrameSegmenter ref(aal::AalType::kAal5, vc);
  const auto expect = ref.segment(sdu);
  ASSERT_EQ(wire.size(), expect.size());
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_EQ(wire[i].payload, expect[i].payload) << i;
    EXPECT_EQ(wire[i].header.vc, vc) << i;
    EXPECT_EQ(wire[i].header.pti, expect[i].header.pti) << i;
  }
  EXPECT_EQ(tx->pdus_sent(), 1u);
  EXPECT_EQ(tx->cells_built(), expect.size());
}

TEST(TxPath, CompletionFiresAndRingDrains) {
  Fixture f;
  auto tx = f.make();
  tx->framer().set_sink([](const atm::Cell&) {});
  tx->start();
  int completions = 0;
  tx->set_completion([&](const TxDescriptor&) { ++completions; });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        tx->post(descriptor_for(f.mem, aal::make_pattern(500, i), {0, 1})));
  }
  f.sim.run_until(sim::milliseconds(2));
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(tx->ring_occupancy(), 0u);
}

TEST(TxPath, RingFullRefusesPost) {
  Fixture f;
  TxPathConfig cfg;
  cfg.ring_entries = 2;
  auto tx = f.make(cfg);
  tx->framer().set_sink([](const atm::Cell&) {});
  // Do not run the sim: the ring cannot drain.
  const aal::Bytes sdu = aal::make_pattern(100, 1);
  EXPECT_TRUE(tx->post(descriptor_for(f.mem, sdu, {0, 1})));
  EXPECT_TRUE(tx->post(descriptor_for(f.mem, sdu, {0, 1})));
  // One descriptor may already have left the ring for the engine, so
  // allow one more, then expect refusal.
  bool refused = false;
  for (int i = 0; i < 3; ++i) {
    if (!tx->post(descriptor_for(f.mem, sdu, {0, 1}))) {
      refused = true;
      break;
    }
  }
  EXPECT_TRUE(refused);
}

TEST(TxPath, FramerPacesAtLineRate) {
  Fixture f;
  auto tx = f.make({}, atm::raw_rate(424e6));  // 1 us slots
  std::vector<sim::Time> times;
  tx->framer().set_sink([&](const atm::Cell&) { times.push_back(f.sim.now()); });
  tx->start();
  ASSERT_TRUE(
      tx->post(descriptor_for(f.mem, aal::make_pattern(480, 2), {0, 1})));
  f.sim.run_until(sim::milliseconds(1));
  ASSERT_GE(times.size(), 2u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GE(times[i] - times[i - 1], sim::microseconds(1)) << i;
  }
}

TEST(TxPath, BackpressureNeverDropsCells) {
  Fixture f;
  TxPathConfig cfg;
  cfg.fifo_cells = 2;  // tiny FIFO: engine must stall, not drop
  auto tx = f.make(cfg, atm::sts3c());
  std::size_t on_wire = 0;
  tx->framer().set_sink([&](const atm::Cell&) { ++on_wire; });
  tx->start();
  const aal::Bytes sdu = aal::make_pattern(9180, 5);  // 192 cells
  ASSERT_TRUE(tx->post(descriptor_for(f.mem, sdu, {0, 1})));
  f.sim.run_until(sim::milliseconds(2));
  EXPECT_EQ(on_wire, aal::aal5_cell_count(9180));
  EXPECT_EQ(tx->fifo().drops(), 0u);
}

TEST(TxPath, WholePduModeUsesOneDmaTransfer) {
  Fixture f;
  auto tx = f.make();
  tx->framer().set_sink([](const atm::Cell&) {});
  tx->start();
  ASSERT_TRUE(
      tx->post(descriptor_for(f.mem, aal::make_pattern(4800, 7), {0, 1})));
  f.sim.run_until(sim::milliseconds(2));
  EXPECT_EQ(f.bus.transfers(), 1u);
  EXPECT_EQ(f.bus.bytes_moved(), 4800u);
}

TEST(TxPath, Aal34DescriptorsProduceAal34Cells) {
  Fixture f;
  auto tx = f.make();
  std::vector<atm::Cell> wire;
  tx->framer().set_sink([&](const atm::Cell& c) { wire.push_back(c); });
  tx->start();
  const aal::Bytes sdu = aal::make_pattern(300, 9);
  ASSERT_TRUE(tx->post(
      descriptor_for(f.mem, sdu, {0, 2}, aal::AalType::kAal34)));
  f.sim.run_until(sim::milliseconds(2));
  ASSERT_EQ(wire.size(), aal::aal34_cell_count(300));
  aal::Aal34Reassembler rx;
  std::optional<aal::Aal34Reassembler::Delivery> d;
  for (const auto& c : wire) {
    auto r = rx.push(c);
    if (r) d = std::move(r);
  }
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->error, aal::ReassemblyError::kNone);
  EXPECT_EQ(d->sdu, sdu);
}

TEST(TxPath, EngineChargedPerCellAndPerPdu) {
  Fixture f;
  auto tx = f.make();
  tx->framer().set_sink([](const atm::Cell&) {});
  tx->start();
  const std::size_t n = 1000;
  ASSERT_TRUE(
      tx->post(descriptor_for(f.mem, aal::make_pattern(n, 4), {0, 1})));
  f.sim.run_until(sim::milliseconds(2));
  const std::size_t cells = aal::aal5_cell_count(n);
  const std::uint64_t expect =
      proc::tx_pdu_instructions(f.fw) +
      static_cast<std::uint64_t>(cells) *
          proc::tx_cell_instructions(f.fw, aal::AalType::kAal5,
                                      {false, false});
  EXPECT_EQ(tx->engine().instructions_retired(), expect);
}

// The emission scheduler at scale: with 1024 VCs in the rotation and
// a scattered subset holding staged cells, grants go round-robin in
// rotation order (the order the path first saw each VC), skipping
// paused VCs and VCs whose shaper is not yet conforming.
TEST(TxPath, RoundRobinRotationAcrossManyVcs) {
  Fixture f;
  TxPathConfig cfg;
  cfg.ring_entries = 256;
  cfg.staged_pdus = 256;
  cfg.staging_concurrency = 256;
  cfg.fifo_cells = 1;  // one grant per wire slot once the framer runs
  cfg.watchdog_interval = 0;
  auto tx = f.make(cfg);

  // Rotation order scattered over labels (and VPIs).
  constexpr std::size_t kVcs = 1024;
  std::vector<atm::VcId> rotation;
  for (std::size_t i = 0; i < kVcs; ++i) {
    rotation.push_back({static_cast<std::uint16_t>(i % 3),
                        static_cast<std::uint16_t>(32 + (i * 389) % kVcs)});
    tx->clear_shaper(rotation.back());
  }
  std::vector<std::size_t> subset;
  for (std::size_t i = 0; i < kVcs; ++i) {
    if ((i * 7919) % 13 == 5) subset.push_back(i);
  }
  ASSERT_GT(subset.size(), 60u);
  const std::size_t paused = subset[3];
  const std::size_t shaped = subset[10];
  const std::size_t throttled = subset[20];
  const std::size_t twice_a = subset[5];
  const std::size_t twice_b = subset[40];
  tx->set_shaper(rotation[shaped], 200.0);  // second cell 5 ms later
  tx->set_rate_factor(rotation[throttled], 1.0 / 1024);  // ~2.9 ms

  // A control cell fills the one-cell FIFO before the framer starts,
  // so every PDU is staged before the first user-cell grant.
  std::vector<atm::VcId> wire;
  tx->framer().set_sink([&](const atm::Cell& c) {
    if (c.header.vc != atm::VcId{0, 5}) wire.push_back(c.header.vc);
  });
  atm::Cell control;
  control.header.vc = {0, 5};
  tx->inject_cell(control);
  for (const std::size_t i : subset) {
    ASSERT_TRUE(tx->post(descriptor_for(f.mem, aal::make_pattern(40, 1),
                                        rotation[i])));
  }
  for (const std::size_t i : {twice_a, twice_b, shaped, throttled}) {
    ASSERT_TRUE(tx->post(descriptor_for(f.mem, aal::make_pattern(40, 2),
                                        rotation[i])));
  }
  f.sim.run_until(sim::milliseconds(2));
  ASSERT_TRUE(wire.empty());
  tx->pause_vc(rotation[paused]);  // staged, then held
  tx->start();
  f.sim.run_until(sim::milliseconds(12));
  tx->resume_vc(rotation[paused]);
  f.sim.run_until(sim::milliseconds(13));

  // Round one: every staged VC once, in rotation order, bar the paused
  // one. Round two: the unshaped VCs with a second PDU. Then the
  // shaped VCs' second cells as they conform, then the resumed VC.
  std::vector<atm::VcId> expect;
  for (const std::size_t i : subset) {
    if (i != paused) expect.push_back(rotation[i]);
  }
  for (const std::size_t i : {twice_a, twice_b, throttled, shaped, paused}) {
    expect.push_back(rotation[i]);
  }
  EXPECT_EQ(wire, expect);
  EXPECT_EQ(tx->pdus_sent(), subset.size() + 4);
}

}  // namespace
}  // namespace hni::nic
