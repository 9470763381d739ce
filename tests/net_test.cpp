// Network substrate tests: link loss/error processes, switch routing
// and queueing, traffic generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "aal/aal5.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "net/traffic.hpp"

namespace hni::net {
namespace {

atm::Cell cell_on(atm::VcId vc) {
  atm::Cell c;
  c.header.vc = vc;
  return c;
}

TEST(Link, DeliversAfterPropagation) {
  sim::Simulator sim;
  Link link(sim, sim::microseconds(25));
  sim::Time arrival = -1;
  link.set_sink([&](const WireCell&) { arrival = sim.now(); });
  sim.at(sim::microseconds(5), [&] { link.send(cell_on({0, 1})); });
  sim.run();
  EXPECT_EQ(arrival, sim::microseconds(30));
}

TEST(Link, WireBytesMatchSerialization) {
  sim::Simulator sim;
  Link link(sim, 0);
  atm::Cell cell = cell_on({3, 9});
  cell.payload[0] = 0xAA;
  cell.meta.seq = 77;
  WireCell got;
  link.set_sink([&](const WireCell& w) { got = w; });
  link.send(cell);
  sim.run();
  EXPECT_EQ(got.bytes, cell.serialize(atm::HeaderFormat::kUni));
  EXPECT_EQ(got.meta.seq, 77u);
}

TEST(Link, BernoulliLossRateConverges) {
  sim::Simulator sim;
  LossModel loss;
  loss.cell_loss_rate = 0.1;
  Link link(sim, 0, loss, 42);
  std::size_t delivered = 0;
  link.set_sink([&](const WireCell&) { ++delivered; });
  const int n = 20000;
  for (int i = 0; i < n; ++i) link.send(cell_on({0, 1}));
  sim.run();
  EXPECT_EQ(link.cells_in(), static_cast<std::uint64_t>(n));
  EXPECT_NEAR(static_cast<double>(link.cells_lost()) / n, 0.1, 0.01);
  EXPECT_EQ(delivered + link.cells_lost(), static_cast<std::size_t>(n));
}

TEST(Link, GilbertElliottProducesBursts) {
  sim::Simulator sim;
  LossModel loss;
  loss.cell_loss_rate = 0.1;
  loss.mean_burst_cells = 8.0;
  Link link(sim, 0, loss, 7);
  std::vector<bool> outcome;
  link.set_sink([&](const WireCell&) { outcome.push_back(true); });
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const auto before = link.cells_lost();
    link.send(cell_on({0, 1}));
    sim.run();
    if (link.cells_lost() > before) outcome.push_back(false);
  }
  // Long-run loss rate still ~10%...
  EXPECT_NEAR(static_cast<double>(link.cells_lost()) / n, 0.1, 0.02);
  // ...but organized in runs: mean loss-burst length near 8.
  std::vector<int> bursts;
  int run = 0;
  for (bool ok : outcome) {
    if (!ok) {
      ++run;
    } else if (run > 0) {
      bursts.push_back(run);
      run = 0;
    }
  }
  ASSERT_FALSE(bursts.empty());
  double mean = 0;
  for (int b : bursts) mean += b;
  mean /= static_cast<double>(bursts.size());
  EXPECT_GT(mean, 4.0);
  EXPECT_LT(mean, 14.0);
}

TEST(Link, RejectsInvalidLossConfig) {
  sim::Simulator sim;
  LossModel loss;
  loss.cell_loss_rate = 1.5;
  EXPECT_THROW(Link(sim, 0, loss), std::invalid_argument);
  LossModel impossible;
  impossible.cell_loss_rate = 0.9;
  impossible.mean_burst_cells = 1.0;  // needs p(G->B) > 1
  EXPECT_THROW(Link(sim, 0, impossible), std::invalid_argument);
}

TEST(Link, HeaderBitErrorsFlipWireBits) {
  sim::Simulator sim;
  LossModel loss;
  loss.header_bit_error_rate = 1.0;  // every cell
  Link link(sim, 0, loss, 3);
  atm::Cell cell = cell_on({0, 1});
  const auto clean = cell.serialize(atm::HeaderFormat::kUni);
  int header_diffs = 0;
  link.set_sink([&](const WireCell& w) {
    for (int i = 0; i < 5; ++i) {
      if (w.bytes[static_cast<std::size_t>(i)] !=
          clean[static_cast<std::size_t>(i)]) {
        ++header_diffs;
      }
    }
  });
  link.send(cell);
  sim.run();
  EXPECT_EQ(header_diffs, 1);
  EXPECT_EQ(link.cells_corrupted(), 1u);
}

TEST(Link, SendWithoutSinkThrows) {
  sim::Simulator sim;
  Link link(sim, 0);
  EXPECT_THROW(link.send(cell_on({0, 1})), std::logic_error);
}

// --- switch ----------------------------------------------------------

WireCell wire_on(atm::VcId vc) {
  WireCell w;
  w.bytes = cell_on(vc).serialize(atm::HeaderFormat::kUni);
  return w;
}

TEST(Switch, RoutesAndTranslatesVc) {
  sim::Simulator sim;
  Switch sw(sim, {.ports = 2, .queue_cells = 16, .clp_threshold = 16});
  Link out(sim, 0);
  sw.add_route(0, {0, 10}, 1, {0, 20});
  sw.attach_output(1, out);
  std::optional<atm::CellHeader> seen;
  out.set_sink([&](const WireCell& w) {
    seen = atm::decode_header(
        std::span<const std::uint8_t, 4>(w.bytes.data(), 4),
        atm::HeaderFormat::kUni);
    // The translated header must carry a fresh valid HEC.
    EXPECT_TRUE(atm::hec_check(
        std::span<const std::uint8_t, 4>(w.bytes.data(), 4), w.bytes[4]));
  });
  sw.receive(0, wire_on({0, 10}));
  sim.run();
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->vc, (atm::VcId{0, 20}));
  EXPECT_EQ(sw.cells_forwarded(), 1u);
}

TEST(Switch, UnroutableCounted) {
  sim::Simulator sim;
  Switch sw(sim, {.ports = 2});
  sw.receive(0, wire_on({9, 99}));
  sim.run();
  EXPECT_EQ(sw.cells_unroutable(), 1u);
  EXPECT_EQ(sw.cells_forwarded(), 0u);
}

TEST(Switch, QueueOverflowDropsTail) {
  sim::Simulator sim;
  Switch sw(sim, {.ports = 2, .queue_cells = 4, .clp_threshold = 4});
  Link out(sim, 0);
  sw.add_route(0, {0, 1}, 1, {0, 1});
  sw.attach_output(1, out);
  out.set_sink([](const WireCell&) {});
  // Burst 20 cells into a 4-cell queue before any slot elapses.
  for (int i = 0; i < 20; ++i) sw.receive(0, wire_on({0, 1}));
  sim.run_until(sim::milliseconds(1));
  EXPECT_GT(sw.cells_dropped_overflow(), 0u);
  // Conservation: forwarded + dropped = 20 (one may be in service).
  EXPECT_EQ(sw.cells_forwarded() + sw.cells_dropped_overflow(), 20u);
}

TEST(Switch, ClpCellsDroppedFirst) {
  sim::Simulator sim;
  Switch sw(sim,
            {.ports = 2, .queue_cells = 8, .clp_threshold = 2});
  Link out(sim, 0);
  sw.add_route(0, {0, 1}, 1, {0, 1});
  sw.attach_output(1, out);
  out.set_sink([](const WireCell&) {});
  atm::Cell clp_cell = cell_on({0, 1});
  clp_cell.header.clp = true;
  WireCell clp_wire;
  clp_wire.bytes = clp_cell.serialize(atm::HeaderFormat::kUni);
  for (int i = 0; i < 6; ++i) sw.receive(0, wire_on({0, 1}));
  for (int i = 0; i < 4; ++i) sw.receive(0, clp_wire);
  sim.run_until(sim::milliseconds(1));
  EXPECT_GT(sw.cells_dropped_clp(), 0u);
  EXPECT_EQ(sw.cells_dropped_overflow(), 0u);  // CLP=0 all fit in 8
}

TEST(Switch, BadHecDiscardedAtInput) {
  sim::Simulator sim;
  Switch sw(sim, {.ports = 2});
  sw.add_route(0, {0, 1}, 1, {0, 1});
  WireCell w = wire_on({0, 1});
  w.bytes[0] ^= 0x01;
  w.bytes[2] ^= 0x40;  // two header errors: uncorrectable
  sw.receive(0, w);
  sim.run();
  EXPECT_EQ(sw.cells_hec_discarded() + sw.cells_unroutable(), 1u);
}

TEST(Switch, QueueDepthStatsTracked) {
  sim::Simulator sim;
  Switch sw(sim, {.ports = 2, .queue_cells = 64, .clp_threshold = 64});
  Link out(sim, 0);
  sw.add_route(0, {0, 1}, 1, {0, 1});
  sw.attach_output(1, out);
  out.set_sink([](const WireCell&) {});
  for (int i = 0; i < 32; ++i) sw.receive(0, wire_on({0, 1}));
  sim.run_until(sim::milliseconds(1));
  EXPECT_GT(sw.max_queue_depth(1), 10.0);
}

// Served-order differential: random arrivals from several weighted VCs
// onto one output port, against a reference scheduler written with
// plain containers. The switch serves a cell the moment an idle port
// receives one, then one per slot while cells remain. Arrivals are all
// scheduled before the run, so one that lands on a service instant is
// queued before that service (the kernel breaks time ties FIFO).
struct Arrival {
  sim::Time at;
  std::size_t vc;  // index into the test's VCs
};

std::vector<std::size_t> reference_order(
    const std::vector<Arrival>& arrivals,
    const std::vector<std::uint32_t>& weights, SwitchScheduler scheduler,
    sim::Time slot) {
  std::deque<std::size_t> fifo;                          // kFifo: VC per cell
  std::vector<std::size_t> backlog(weights.size(), 0);   // per-VC cells
  std::deque<std::size_t> active;                        // VCs with cells
  std::uint32_t grant_left = 0;  // head VC's remaining DWRR grant
  std::vector<std::size_t> served;
  const auto enqueue = [&](std::size_t vc) {
    fifo.push_back(vc);
    if (backlog[vc]++ == 0) active.push_back(vc);
  };
  const auto pick = [&] {
    if (scheduler == SwitchScheduler::kFifo) {
      served.push_back(fifo.front());
      fifo.pop_front();
      return;
    }
    const std::size_t vc = active.front();
    served.push_back(vc);
    --backlog[vc];
    if (scheduler == SwitchScheduler::kRoundRobin) {
      active.pop_front();
      if (backlog[vc] > 0) active.push_back(vc);
      return;
    }
    // DWRR: the head VC keeps the turn for `weight` cells, or until it
    // drains (then it leaves the ring and forfeits the rest).
    if (grant_left == 0) grant_left = weights[vc];
    --grant_left;
    if (backlog[vc] == 0) {
      active.pop_front();
      grant_left = 0;
    } else if (grant_left == 0) {
      active.pop_front();
      active.push_back(vc);
    }
  };
  const auto queued = [&] {
    return scheduler == SwitchScheduler::kFifo ? !fifo.empty()
                                               : !active.empty();
  };
  bool busy = false;
  sim::Time next_service = 0;
  std::size_t i = 0;
  while (i < arrivals.size() || busy) {
    if (i < arrivals.size() && (!busy || arrivals[i].at <= next_service)) {
      enqueue(arrivals[i].vc);
      if (!busy) {
        busy = true;
        next_service = arrivals[i].at + slot;
        pick();
      }
      ++i;
      continue;
    }
    if (!queued()) {
      busy = false;
      continue;
    }
    pick();
    next_service += slot;
  }
  return served;
}

TEST(Switch, ServedOrderMatchesReferenceModel) {
  constexpr std::size_t kVcs = 5;
  const sim::Time slot = atm::sts3c().cell_slot();
  int differing = 0;
  for (std::uint64_t trial = 0; trial < 300; ++trial) {
    sim::Rng rng(0x5C4ED + trial);
    std::vector<std::uint32_t> weights(kVcs);
    for (auto& w : weights) {
      w = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    }
    // Half-slot arrival grid: many arrivals land on a service instant,
    // many between two; bursts share an instant.
    std::vector<Arrival> arrivals(rng.uniform_int(1, 120));
    for (auto& a : arrivals) {
      a.at = static_cast<sim::Time>(rng.uniform_int(0, 160)) * slot / 2;
      a.vc = rng.uniform_int(0, kVcs - 1);
    }
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const Arrival& x, const Arrival& y) {
                       return x.at < y.at;
                     });
    for (const SwitchScheduler scheduler :
         {SwitchScheduler::kFifo, SwitchScheduler::kRoundRobin,
          SwitchScheduler::kDwrr}) {
      sim::Simulator sim;
      Switch sw(sim, {.ports = 3, .queue_cells = 512, .clp_threshold = 512,
                      .scheduler = scheduler});
      Link out(sim, 0);
      sw.attach_output(2, out);
      // VC v enters on port v % 2 as 0/(32 + v) and leaves as 0/(64 + v).
      for (std::size_t v = 0; v < kVcs; ++v) {
        sw.add_route(v % 2, {0, static_cast<std::uint16_t>(32 + v)}, 2,
                     {0, static_cast<std::uint16_t>(64 + v)}, weights[v]);
      }
      std::vector<std::size_t> got;
      out.set_sink([&](const WireCell& w) {
        const atm::CellHeader h = atm::decode_header(
            std::span<const std::uint8_t, 4>(w.bytes.data(), 4),
            atm::HeaderFormat::kUni);
        got.push_back(h.vc.vci - 64u);
      });
      for (const Arrival& a : arrivals) {
        sim.at(a.at, [&sw, v = a.vc] {
          sw.receive(v % 2, wire_on({0, static_cast<std::uint16_t>(32 + v)}));
        });
      }
      sim.run();
      const std::vector<std::size_t> want =
          reference_order(arrivals, weights, scheduler, slot);
      if (got != want && ++differing <= 3) {
        ADD_FAILURE() << "trial " << trial << " scheduler "
                      << static_cast<int>(scheduler) << ": served "
                      << got.size() << " cells, reference " << want.size();
      }
    }
  }
  EXPECT_EQ(differing, 0);
}

// --- traffic ---------------------------------------------------------

TEST(SduSource, GreedyRespectsBackpressureAndResumes) {
  sim::Simulator sim;
  int window = 3;
  std::size_t accepted = 0;
  SduSource::Config cfg;
  cfg.mode = SduSource::Mode::kGreedy;
  cfg.sdu_bytes = 100;
  cfg.count = 10;
  SduSource src(sim, cfg, [&](aal::Bytes) {
    if (window == 0) return false;
    --window;
    ++accepted;
    return true;
  });
  src.start();
  sim.run();
  EXPECT_EQ(accepted, 3u);
  EXPECT_EQ(src.refused(), 1u);
  window = 100;
  src.notify_ready();
  sim.run();
  EXPECT_EQ(accepted, 10u);
  EXPECT_TRUE(src.done());
}

TEST(SduSource, CbrSpacingExact) {
  sim::Simulator sim;
  std::vector<sim::Time> times;
  SduSource::Config cfg;
  cfg.mode = SduSource::Mode::kCbr;
  cfg.interval = sim::microseconds(125);
  cfg.count = 8;
  cfg.sdu_bytes = 64;
  SduSource src(sim, cfg, [&](aal::Bytes) {
    times.push_back(sim.now());
    return true;
  });
  src.start();
  sim.run();
  ASSERT_EQ(times.size(), 8u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_EQ(times[i] - times[i - 1], sim::microseconds(125));
  }
}

TEST(SduSource, PoissonMeanRate) {
  sim::Simulator sim;
  SduSource::Config cfg;
  cfg.mode = SduSource::Mode::kPoisson;
  cfg.interval = sim::microseconds(50);
  cfg.count = 4000;
  cfg.sdu_bytes = 10;
  SduSource src(sim, cfg, [](aal::Bytes) { return true; });
  src.start();
  sim.run();
  // 4000 arrivals at mean 50 us spacing ~= 200 ms total.
  EXPECT_NEAR(sim::to_seconds(sim.now()), 0.2, 0.02);
}

TEST(SduSource, OnOffAlternatesPhases) {
  sim::Simulator sim;
  SduSource::Config cfg;
  cfg.mode = SduSource::Mode::kOnOff;
  cfg.interval = sim::microseconds(10);
  cfg.mean_on = sim::microseconds(200);
  cfg.mean_off = sim::microseconds(800);
  cfg.count = 2000;
  cfg.sdu_bytes = 10;
  std::vector<sim::Time> times;
  SduSource src(sim, cfg, [&](aal::Bytes) {
    times.push_back(sim.now());
    return true;
  });
  src.start();
  sim.run();
  ASSERT_EQ(times.size(), 2000u);
  // Duty cycle 20%: the 2000 arrivals at 10 us spacing need ~20 ms of
  // on-time, so total time should be near 100 ms (loose bounds).
  const double total_s = sim::to_seconds(times.back());
  EXPECT_GT(total_s, 0.04);
  EXPECT_LT(total_s, 0.25);
  // And gaps >> interval exist (off phases).
  int big_gaps = 0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    if (times[i] - times[i - 1] > sim::microseconds(100)) ++big_gaps;
  }
  EXPECT_GT(big_gaps, 5);
}

TEST(SduSource, PayloadsVerify) {
  sim::Simulator sim;
  SduSource::Config cfg;
  cfg.mode = SduSource::Mode::kCbr;
  cfg.interval = sim::microseconds(10);
  cfg.count = 5;
  cfg.sdu_bytes = 256;
  SduSource src(sim, cfg, [&](aal::Bytes b) {
    EXPECT_TRUE(aal::verify_pattern(b));
    return true;
  });
  src.start();
  sim.run();
  EXPECT_EQ(src.generated(), 5u);
  EXPECT_EQ(src.bytes_offered(), 5u * 256u);
}

TEST(SduSource, RejectsBadConfig) {
  sim::Simulator sim;
  SduSource::Config cfg;
  cfg.sdu_bytes = 0;
  EXPECT_THROW(SduSource(sim, cfg, [](aal::Bytes) { return true; }),
               std::invalid_argument);
}

}  // namespace
}  // namespace hni::net
