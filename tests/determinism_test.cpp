// Reproducibility: identical scenarios must produce bit-identical
// results — the property every experiment in EXPERIMENTS.md rests on.

#include <gtest/gtest.h>

#include "core/scenario.hpp"

namespace hni {
namespace {

core::P2pResult run_once() {
  core::P2pConfig cfg;
  net::SduSource::Config& traffic = cfg.flows.emplace_back().source;
  traffic.mode = net::SduSource::Mode::kPoisson;
  traffic.sdu_bytes = 2000;
  traffic.interval = sim::microseconds(300);
  cfg.loss.cell_loss_rate = 0.001;
  cfg.loss.mean_burst_cells = 3.0;
  cfg.loss.cdv_jitter = sim::microseconds(2);
  cfg.measure = sim::milliseconds(20);
  return core::run_p2p(cfg);
}

TEST(Determinism, IdenticalRunsIdenticalResults) {
  const auto r1 = run_once();
  const auto r2 = run_once();
  EXPECT_EQ(r1.sdus_sent, r2.sdus_sent);
  EXPECT_EQ(r1.sdus_received, r2.sdus_received);
  EXPECT_EQ(r1.sdus_errored, r2.sdus_errored);
  EXPECT_EQ(r1.cells_fifo_dropped, r2.cells_fifo_dropped);
  EXPECT_DOUBLE_EQ(r1.goodput_bps, r2.goodput_bps);
  EXPECT_DOUBLE_EQ(r1.latency_mean_us, r2.latency_mean_us);
  EXPECT_DOUBLE_EQ(r1.rx_engine_util, r2.rx_engine_util);
}

TEST(Determinism, SeedChangesOutcome) {
  core::P2pConfig a;
  net::SduSource::Config& traffic = a.flows.emplace_back().source;
  traffic.mode = net::SduSource::Mode::kPoisson;
  traffic.sdu_bytes = 2000;
  traffic.interval = sim::microseconds(300);
  traffic.seed = 1;
  a.loss.cell_loss_rate = 0.002;
  a.measure = sim::milliseconds(20);
  core::P2pConfig b = a;
  b.flows[0].source.seed = 2;
  const auto ra = core::run_p2p(a);
  const auto rb = core::run_p2p(b);
  // Different universes: at least one observable differs.
  EXPECT_TRUE(ra.sdus_received != rb.sdus_received ||
              ra.latency_mean_us != rb.latency_mean_us ||
              ra.goodput_bps != rb.goodput_bps);
}

}  // namespace
}  // namespace hni
