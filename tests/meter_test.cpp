// trTCM meter tests.
//
// The centerpiece is a differential test: atm::TrTcm against a scalar
// reference written independently from RFC 2698's text (two buckets,
// refill-then-verdict), driven over randomized contracts and arrival
// processes. The production meter and the reference must agree on
// every verdict. Around it, directed edge cases pin the color
// transitions down: committed burst exhausted (green -> yellow), peak
// burst exhausted (yellow -> red), both at once, and recovery after
// idle time refills the buckets.

#include <gtest/gtest.h>

#include <vector>

#include "atm/meter.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace hni {
namespace {

using atm::MeterColor;

// Scalar reference trTCM, straight from the RFC 2698 update rules.
// Same token arithmetic domain (cells, picosecond timebase) so the
// comparison is exact, but structured independently: the reference
// recomputes rates from the config on every refill instead of caching
// per-picosecond factors, and evaluates the verdict via the RFC's
// decision order.
class ReferenceTrTcm {
 public:
  explicit ReferenceTrTcm(const atm::TrTcmConfig& cfg) : cfg_(cfg) {
    cbs_ = std::max(cfg.cbs_cells, 1.0);
    pbs_ = std::max(cfg.pbs_cells, 1.0);
    tc_ = cbs_;
    tp_ = pbs_;
  }

  MeterColor color(sim::Time now) {
    if (now > last_) {
      const double dt = static_cast<double>(now - last_);
      tc_ = std::min(cbs_, tc_ + dt * (cfg_.cir_cells_per_second /
                                       sim::kSecond));
      tp_ = std::min(pbs_, tp_ + dt * (cfg_.pir_cells_per_second /
                                       sim::kSecond));
      last_ = now;
    }
    if (tp_ < 1.0) return MeterColor::kRed;
    if (tc_ < 1.0) {
      tp_ -= 1.0;
      return MeterColor::kYellow;
    }
    tc_ -= 1.0;
    tp_ -= 1.0;
    return MeterColor::kGreen;
  }

 private:
  atm::TrTcmConfig cfg_;
  double cbs_ = 1.0, pbs_ = 1.0, tc_ = 1.0, tp_ = 1.0;
  sim::Time last_ = 0;
};

TEST(TrTcm, DifferentialAgainstScalarReference) {
  sim::Rng rng(0x7C31);
  for (int trial = 0; trial < 200; ++trial) {
    atm::TrTcmConfig cfg;
    cfg.cir_cells_per_second =
        static_cast<double>(rng.uniform_int(1'000, 500'000));
    // PIR >= CIR (decode enforces SCR <= PCR; mirror that here).
    cfg.pir_cells_per_second =
        cfg.cir_cells_per_second +
        static_cast<double>(rng.uniform_int(0, 500'000));
    cfg.cbs_cells = static_cast<double>(rng.uniform_int(1, 50));
    cfg.pbs_cells = static_cast<double>(rng.uniform_int(1, 50));
    atm::TrTcm meter(cfg);
    ReferenceTrTcm ref(cfg);

    // Arrival process mixing back-to-back bursts (dt = 0) with gaps
    // spanning sub-slot to multi-burst-refill scales.
    sim::Time now = 0;
    for (int i = 0; i < 500; ++i) {
      if (!rng.chance(0.3)) {
        now += static_cast<sim::Time>(rng.uniform_int(1, 20'000'000));
      }
      const MeterColor got = meter.color(now);
      const MeterColor want = ref.color(now);
      ASSERT_EQ(static_cast<int>(got), static_cast<int>(want))
          << "trial " << trial << " cell " << i << " at t=" << now
          << " cir=" << cfg.cir_cells_per_second
          << " pir=" << cfg.pir_cells_per_second
          << " cbs=" << cfg.cbs_cells << " pbs=" << cfg.pbs_cells;
    }
  }
}

// CIR 1000 cells/s, PIR 10000 cells/s: one committed token every ms,
// one peak token every 100 us.
atm::TrTcmConfig small_contract(double cbs, double pbs) {
  atm::TrTcmConfig cfg;
  cfg.cir_cells_per_second = 1'000.0;
  cfg.pir_cells_per_second = 10'000.0;
  cfg.cbs_cells = cbs;
  cfg.pbs_cells = pbs;
  return cfg;
}

TEST(TrTcm, CommittedBurstExhaustionTurnsYellow) {
  // CBS 3, PBS 10: a back-to-back burst drains the committed bucket
  // after 3 cells while peak tokens remain.
  atm::TrTcm meter(small_contract(3, 10));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(meter.color(0), MeterColor::kGreen) << "cell " << i;
  }
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(meter.color(0), MeterColor::kYellow) << "cell " << i;
  }
}

TEST(TrTcm, PeakBurstExhaustionTurnsRed) {
  atm::TrTcm meter(small_contract(3, 10));
  for (int i = 0; i < 10; ++i) meter.color(0);  // 3 green + 7 yellow
  // Peak bucket empty: red, and red consumes nothing — it stays red.
  EXPECT_EQ(meter.color(0), MeterColor::kRed);
  EXPECT_EQ(meter.color(0), MeterColor::kRed);
  EXPECT_DOUBLE_EQ(meter.peak_tokens(), 0.0);
}

TEST(TrTcm, BothBucketsExhaustedSimultaneously) {
  // Equal depths: committed and peak run out on the same cell, so the
  // verdict goes green straight to red with no yellow band.
  atm::TrTcm meter(small_contract(5, 5));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(meter.color(0), MeterColor::kGreen) << "cell " << i;
  }
  EXPECT_EQ(meter.color(0), MeterColor::kRed);
}

TEST(TrTcm, IdleTimeRefillsBothBuckets) {
  atm::TrTcm meter(small_contract(3, 10));
  for (int i = 0; i < 11; ++i) meter.color(0);  // drain to red
  // One second of silence refills both buckets to their caps.
  EXPECT_EQ(meter.color(sim::seconds(1)), MeterColor::kGreen);
  EXPECT_DOUBLE_EQ(meter.committed_tokens(), 2.0);
  EXPECT_DOUBLE_EQ(meter.peak_tokens(), 9.0);
}

TEST(TrTcm, SustainedRateBetweenCirAndPirIsYellow) {
  // Cells every 200 us = 5000 cells/s: above CIR (1000), below PIR
  // (10000). Once the committed burst credit is spent, the steady
  // state is yellow — the VBR "bursting above SCR inside PCR" band.
  atm::TrTcm meter(small_contract(2, 10));
  int yellow = 0;
  sim::Time now = 0;
  for (int i = 0; i < 50; ++i) {
    if (meter.color(now) == MeterColor::kYellow) ++yellow;
    now += sim::microseconds(200);
  }
  EXPECT_GE(yellow, 35);  // ~1 in 5 earns a committed token back
  // And nothing went red: the peak bucket never empties at this rate.
  EXPECT_GT(meter.peak_tokens(), 0.0);
}

TEST(TrTcm, RedDoesNotDebitPeakBucket) {
  // RFC 2698: a red verdict consumes no tokens. After a red cell, the
  // very next peak token earned must go to the next cell, not to debt.
  atm::TrTcm meter(small_contract(1, 1));
  EXPECT_EQ(meter.color(0), MeterColor::kGreen);
  EXPECT_EQ(meter.color(0), MeterColor::kRed);
  // 100 us earns exactly one peak token (PIR 10k) and a tenth of a
  // committed token — so the cell passes as yellow, not red.
  EXPECT_EQ(meter.color(sim::microseconds(100)), MeterColor::kYellow);
}

}  // namespace
}  // namespace hni
