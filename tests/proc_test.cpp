// Protocol engine and firmware-table tests: cost arithmetic, busy
// accounting, and the structural properties of the instruction budgets
// (receive > transmit, CAM cheaper than hashing, offload savings, the
// AAL3/4 surcharge).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "proc/engine.hpp"
#include "proc/firmware.hpp"
#include "sim/random.hpp"

namespace hni::proc {
namespace {

EngineConfig cfg(double hz = 25e6, double cpi = 1.0) {
  return EngineConfig{hz, cpi};
}

TEST(Engine, CostArithmetic) {
  sim::Simulator sim;
  Engine e(sim, cfg());
  // 25 instructions at 25 MHz, CPI 1 = 1 us.
  EXPECT_EQ(e.cost(25), sim::microseconds(1));
  Engine slow(sim, cfg(25e6, 2.0));
  EXPECT_EQ(slow.cost(25), sim::microseconds(2));
}

TEST(Engine, RejectsBadConfig) {
  sim::Simulator sim;
  EXPECT_THROW(Engine(sim, cfg(0)), std::invalid_argument);
  EXPECT_THROW(Engine(sim, cfg(25e6, 0)), std::invalid_argument);
}

TEST(Engine, WorkSerializesFifo) {
  sim::Simulator sim;
  Engine e(sim, cfg());
  std::vector<sim::Time> completions;
  e.execute(25, [&] { completions.push_back(sim.now()); });  // 1 us
  e.execute(50, [&] { completions.push_back(sim.now()); });  // 2 us more
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], sim::microseconds(1));
  EXPECT_EQ(completions[1], sim::microseconds(3));
  EXPECT_EQ(e.instructions_retired(), 75u);
  EXPECT_EQ(e.work_items(), 2u);
}

TEST(Engine, IdleReflectsQueue) {
  sim::Simulator sim;
  Engine e(sim, cfg());
  EXPECT_TRUE(e.idle());
  e.execute(25, [] {});
  EXPECT_FALSE(e.idle());
  sim.run();
  EXPECT_TRUE(e.idle());
}

TEST(Engine, UtilizationOverWindow) {
  sim::Simulator sim;
  Engine e(sim, cfg());
  e.execute(25, [] {});  // busy 1 us
  sim.run();
  sim.run_until(sim::microseconds(4));
  EXPECT_NEAR(e.utilization(sim.now()), 0.25, 1e-9);
}

TEST(Engine, OccupyChargesLiteralTime) {
  sim::Simulator sim;
  Engine e(sim, cfg());
  sim::Time done = 0;
  e.occupy(sim::microseconds(7), [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, sim::microseconds(7));
}

// The engine keeps queued work in its own ring and arms only the front
// item. The reference below is the plain model it replaces: one kernel
// event per work item, scheduled when the work is queued.
struct OneEventPerItem {
  explicit OneEventPerItem(sim::Simulator& s) : sim(s) {}
  void occupy(sim::Time duration, sim::Action done) {
    free_at = std::max(sim.now(), free_at) + duration;
    sim.at(free_at, std::move(done));
  }
  sim::Simulator& sim;
  sim::Time free_at = 0;
};

struct RingEngine {
  explicit RingEngine(sim::Simulator& s) : engine(s, cfg()) {}
  void occupy(sim::Time duration, sim::Action done) {
    engine.occupy(duration, std::move(done));
  }
  Engine engine;
};

// One seeded trial: work arriving at random instants (and from inside
// completions), random durations including zero, and foreign events
// landing on the same instants. Returns every firing as (id, time).
template <typename E>
std::vector<std::pair<int, sim::Time>> firing_sequence(std::uint64_t seed,
                                                       std::uint64_t* fired) {
  sim::Simulator sim;
  sim::Rng rng(seed);
  E engine(sim);
  std::vector<std::pair<int, sim::Time>> log;
  int next_id = 0;
  auto foreign = [&](sim::Time at) {
    const int id = next_id++;
    sim.at(at, [&log, &sim, id] { log.emplace_back(id, sim.now()); });
  };
  std::function<void(int)> work = [&](int depth) {
    const int id = next_id++;
    engine.occupy(static_cast<sim::Time>(rng.uniform_int(0, 4)),
                  [&, id, depth] {
                    log.emplace_back(id, sim.now());
                    if (depth < 3 && rng.chance(0.5)) work(depth + 1);
                    if (rng.chance(0.3)) {
                      foreign(sim.now() + static_cast<sim::Time>(
                                              rng.uniform_int(0, 3)));
                    }
                  });
  };
  for (int i = 0; i < 40; ++i) {
    sim.at(static_cast<sim::Time>(rng.uniform_int(0, 30)), [&] { work(0); });
    foreign(static_cast<sim::Time>(rng.uniform_int(0, 40)));
  }
  sim.run();
  *fired = sim.events_fired();
  return log;
}

TEST(Engine, QueuedWorkFiresLikeOneEventPerItem) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    std::uint64_t fired_ref = 0;
    std::uint64_t fired_ring = 0;
    const auto ref = firing_sequence<OneEventPerItem>(seed, &fired_ref);
    const auto ring = firing_sequence<RingEngine>(seed, &fired_ring);
    ASSERT_EQ(ring, ref) << "seed " << seed;
    ASSERT_EQ(fired_ring, fired_ref) << "seed " << seed;
  }
}

// --- firmware table structure ----------------------------------------

FirmwareProfile default_profile() { return FirmwareProfile{}; }

TEST(Firmware, RxMiddleCellCheaperThanEdges) {
  const auto p = default_profile();
  const auto mid = rx_cell_instructions(p, aal::AalType::kAal5,
                                        {false, false});
  const auto first = rx_cell_instructions(p, aal::AalType::kAal5,
                                          {true, false});
  const auto last = rx_cell_instructions(p, aal::AalType::kAal5,
                                         {false, true});
  const auto only = rx_cell_instructions(p, aal::AalType::kAal5,
                                         {true, true});
  EXPECT_LT(mid, first);
  EXPECT_LT(mid, last);
  EXPECT_EQ(only, first + last - mid);  // both surcharges apply
}

TEST(Firmware, ReceiveCostsMoreThanTransmit) {
  // The paper's central asymmetry: reassembly (lookup + chaining +
  // validation) outweighs segmentation for every cell position.
  const auto p = default_profile();
  for (bool first : {false, true}) {
    for (bool last : {false, true}) {
      const CellPosition pos{first, last};
      EXPECT_GE(rx_cell_instructions(p, aal::AalType::kAal5, pos),
                tx_cell_instructions(p, aal::AalType::kAal5, pos));
    }
  }
}

TEST(Firmware, CamLookupCheaperThanHash) {
  FirmwareProfile cam = default_profile();
  cam.assists.cam_lookup = true;
  FirmwareProfile hash = default_profile();
  hash.assists.cam_lookup = false;
  const CellPosition mid{false, false};
  EXPECT_LT(rx_cell_instructions(cam, aal::AalType::kAal5, mid),
            rx_cell_instructions(hash, aal::AalType::kAal5, mid));
  // And hash cost grows with probes.
  EXPECT_LT(rx_cell_instructions(hash, aal::AalType::kAal5, mid, 0),
            rx_cell_instructions(hash, aal::AalType::kAal5, mid, 4));
  // Probes are irrelevant with a CAM.
  EXPECT_EQ(rx_cell_instructions(cam, aal::AalType::kAal5, mid, 0),
            rx_cell_instructions(cam, aal::AalType::kAal5, mid, 9));
}

TEST(Firmware, CrcOffloadSavesPerCellWork) {
  FirmwareProfile hw = default_profile();
  hw.assists.crc_offload = true;
  FirmwareProfile sw = default_profile();
  sw.assists.crc_offload = false;
  const CellPosition mid{false, false};
  const auto saving =
      rx_cell_instructions(sw, aal::AalType::kAal5, mid) -
      rx_cell_instructions(hw, aal::AalType::kAal5, mid);
  EXPECT_EQ(saving, sw.rx.crc_per_word * 12);  // 48 bytes = 12 words
  EXPECT_GT(tx_cell_instructions(sw, aal::AalType::kAal5, mid),
            tx_cell_instructions(hw, aal::AalType::kAal5, mid));
}

TEST(Firmware, Aal34CostsMoreThanAal5) {
  const auto p = default_profile();
  const CellPosition mid{false, false};
  EXPECT_GT(rx_cell_instructions(p, aal::AalType::kAal34, mid),
            rx_cell_instructions(p, aal::AalType::kAal5, mid));
  EXPECT_GT(tx_cell_instructions(p, aal::AalType::kAal34, mid),
            tx_cell_instructions(p, aal::AalType::kAal5, mid));
}

TEST(Firmware, PerPduBudgetsArePositive) {
  const auto p = default_profile();
  EXPECT_GT(tx_pdu_instructions(p), 0u);
  EXPECT_GT(rx_pdu_instructions(p), 0u);
}

TEST(Firmware, DefaultBudgetFitsSts3cSlot) {
  // The paper's feasibility claim: a 25 MIPS engine handles the
  // per-cell budget of any multi-cell PDU within the 2.83 us STS-3c
  // slot. (Single-cell PDUs — first and last surcharges on one cell —
  // are the known worst case; see the companion test below.)
  sim::Simulator sim;
  Engine e(sim, cfg(25e6, 1.0));
  const auto p = default_profile();
  const sim::Time slot = sim::nanoseconds(2831);
  for (bool first : {false, true}) {
    for (bool last : {false, true}) {
      if (first && last) continue;
      for (auto aal : {aal::AalType::kAal5, aal::AalType::kAal34}) {
        const CellPosition pos{first, last};
        EXPECT_LE(e.cost(rx_cell_instructions(p, aal, pos)), slot);
        EXPECT_LE(e.cost(tx_cell_instructions(p, aal, pos)), slot);
      }
    }
  }
}

TEST(Firmware, BackToBackSingleCellPdusAreTheRxWorstCase) {
  // A stream of one-cell PDUs puts first+last+per-PDU work on every
  // slot; that exceeds a 2.83 us slot on 25 MIPS. The RX FIFO absorbs
  // short bursts of these; sustained streams need a faster engine —
  // exactly the sizing discussion the paper's analysis supports.
  sim::Simulator sim;
  Engine e(sim, cfg(25e6, 1.0));
  const auto p = default_profile();
  const sim::Time slot = sim::nanoseconds(2831);
  const auto instr =
      rx_cell_instructions(p, aal::AalType::kAal5, {true, true}) +
      rx_pdu_instructions(p);
  EXPECT_GT(e.cost(instr), slot);
  // A 33 MHz part closes most of the gap; 50 MHz closes it fully.
  Engine fast(sim, cfg(50e6, 1.0));
  EXPECT_LE(fast.cost(instr), slot);
}

TEST(Firmware, MiddleCellBudgetMissesSts12cOn25MipsRx) {
  // ...and the flip side: at STS-12c (707.8 ns slots) the default
  // receive budget does NOT fit on 25 MIPS — the motivation for faster
  // engines / more hardware assist (bench A2 sweeps this).
  sim::Simulator sim;
  Engine e(sim, cfg(25e6, 1.0));
  const auto p = default_profile();
  const sim::Time slot = sim::nanoseconds(708);
  EXPECT_GT(e.cost(rx_cell_instructions(p, aal::AalType::kAal5,
                                        {false, false})),
            slot);
  // TX, being lighter, fits even at STS-12c.
  EXPECT_LE(e.cost(tx_cell_instructions(p, aal::AalType::kAal5,
                                        {false, false})),
            slot);
}

}  // namespace
}  // namespace hni::proc
