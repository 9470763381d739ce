// Two-rate three-color metering (trTCM, RFC 2698 profile), in the
// token-bucket style of DPDK's rte_meter.
//
// A meter classifies each cell against a traffic contract instead of
// the binary conform/violate verdict a single GCRA gives:
//
//   trTCM: two buckets — committed (CIR, depth CBS) and peak (PIR,
//   depth PBS), both in cells. A cell that finds the peak bucket empty
//   is RED (outside even the peak rate: UPC discards it). Otherwise,
//   if the committed bucket is empty it is YELLOW (bursting above the
//   sustainable rate but inside the peak: UPC tags it CLP=1, so WRED's
//   lower band sheds it first under pressure). Otherwise it is GREEN.
//
// This is the ATM VBR story (sustainable rate + peak rate) expressed
// as buckets rather than the equivalent dual GCRA: SCR maps to CIR,
// PCR to PIR, and the burst tolerances to the bucket depths. Meters
// run color-blind (the incoming CLP bit does not demote the verdict;
// tagging is the switch's job) and are deterministic: token refill is
// a pure function of the elapsed sim::Time, with no wall clock and no
// RNG, so runs replay exactly.

#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.hpp"

namespace hni::atm {

enum class MeterColor : std::uint8_t {
  kGreen,   // within the committed rate
  kYellow,  // above committed, within peak: mark discard-eligible
  kRed,     // above peak: non-conforming
};

/// Two-rate three-color meter configuration. Rates are in cells per
/// second, burst depths in cells. A valid contract has
/// 0 < cir <= pir and bursts >= 1 (a bucket must fit one cell).
struct TrTcmConfig {
  double cir_cells_per_second = 0.0;  // committed (sustainable) rate
  double pir_cells_per_second = 0.0;  // peak rate
  double cbs_cells = 1.0;             // committed burst size
  double pbs_cells = 1.0;             // peak burst size
};

class TrTcm {
 public:
  TrTcm() = default;
  explicit TrTcm(const TrTcmConfig& cfg)
      : cir_per_ps_(cfg.cir_cells_per_second / sim::kSecond),
        pir_per_ps_(cfg.pir_cells_per_second / sim::kSecond),
        cbs_(std::max(cfg.cbs_cells, 1.0)),
        pbs_(std::max(cfg.pbs_cells, 1.0)),
        tc_(cbs_),
        tp_(pbs_) {}

  /// Meters one cell arriving at `now` and commits the verdict (tokens
  /// are consumed). Arrival times must be non-decreasing.
  MeterColor color(sim::Time now) {
    refill(now);
    if (tp_ < 1.0) return MeterColor::kRed;  // peak exhausted: no debit
    if (tc_ < 1.0) {
      tp_ -= 1.0;
      return MeterColor::kYellow;
    }
    tc_ -= 1.0;
    tp_ -= 1.0;
    return MeterColor::kGreen;
  }

  /// Current bucket levels (test/introspection hooks).
  double committed_tokens() const { return tc_; }
  double peak_tokens() const { return tp_; }

 private:
  void refill(sim::Time now) {
    const sim::Time dt = now - last_;
    if (dt <= 0) return;
    last_ = now;
    const double d = static_cast<double>(dt);
    tc_ = std::min(cbs_, tc_ + d * cir_per_ps_);
    tp_ = std::min(pbs_, tp_ + d * pir_per_ps_);
  }

  double cir_per_ps_ = 0.0;  // tokens (cells) per picosecond
  double pir_per_ps_ = 0.0;
  double cbs_ = 1.0;
  double pbs_ = 1.0;
  double tc_ = 1.0;  // committed bucket level, starts full
  double tp_ = 1.0;  // peak bucket level, starts full
  sim::Time last_ = 0;
};

}  // namespace hni::atm
