// Declarative scenario specs for the fleet runner.
//
// A ScenarioSpec is the run-matrix row the bench suite converged on
// after nine planes of bespoke binaries: one struct naming a topology
// (point-to-point, single-switch mux, N-switch line, protected
// triangle), a traffic mix (CBR/Poisson/on-off/greedy sources with
// contracts and DWRR weights), a fault profile (cell loss, trunk
// flaps, signalling-message drops) and an acceptance block (goodput
// floors, delivery-ratio floors, latency ceilings, Jain floors, clean
// conservation audit, golden digests, same-seed determinism).
//
// This header is pure data + text codec + acceptance arithmetic. The
// runner, sig::run_scenario (src/sig/fleet.hpp), translates a p2p spec
// onto core::run_p2p and builds the switched topologies over a
// sig::SignalingNetwork, so the core library stays below the
// signalling layer.
//
// Text format: `key = value` lines, '#' comments, unknown keys are
// hard errors (a typo must not silently run a different scenario).
// `source` lines repeat, one per traffic source:
//
//   # scenario: three weighted flows through one DWRR port
//   name       = mux-fairness-dwrr
//   plane      = fairness
//   topology   = mux
//   scheduler  = dwrr
//   source     = cbr rate_mbps=90 sdu=9180 weight=1
//   source     = cbr rate_mbps=90 sdu=9180 weight=2
//   source     = cbr rate_mbps=90 sdu=9180 weight=4
//   accept_jain = 0.97
//
// Acceptance keys start with accept_; `ablation = on` turns every floor
// into a ceiling the row must stay under, and `min_mbps=` on a source
// line is that source's delivered-rate floor.
//
// to_text() emits the canonical form; parse(to_text(s)) round-trips.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hni::core {

/// One traffic source. Rates are SDU-payload megabits per second; the
/// runner derives inter-SDU spacing and (for contracts) cell rates.
struct TrafficSpec {
  enum class Kind : std::uint8_t { kCbr, kPoisson, kOnOff, kGreedy };
  Kind kind = Kind::kCbr;
  double rate_mbps = 10.0;     // offered load (greedy saturates instead)
  std::size_t sdu_bytes = 1500;
  double pcr_mbps = 0.0;       // signalled PCR contract; 0 = best effort
  double scr_mbps = 0.0;       // > 0 adds a trTCM meter (VBR contract)
  std::uint16_t weight = 1;    // DWRR share at switch output queues
  bool abr = false;            // ERICA explicit-rate participant
  double min_mbps = 0.0;       // delivered-rate floor; 0 = off
};

/// The fault profile applied while the measurement window runs.
struct FaultSpec {
  /// Cell loss on the data path: the p2p link, or every trunk.
  double cell_loss_rate = 0.0;
  double loss_burst_cells = 0.0;  // Gilbert-Elliott mean burst; 0 = iid
  /// Square-wave outage on the first trunk (or the p2p link pair):
  /// down for `flap_down` at the head of every `flap_period`.
  sim::Time flap_period = 0;
  sim::Time flap_down = 0;
  /// Bernoulli drop rate on every signalling sender's message tap.
  double sig_drop_rate = 0.0;
};

/// What the scenario must deliver to pass. Zero disables a numeric
/// check; the audit check is on unless explicitly waived.
struct AcceptanceSpec {
  double min_goodput_mbps = 0.0;   // total delivered payload rate
  /// Of the SDU payload generated inside the window, the share
  /// delivered by the end of the drain (never above 1; a result above 1
  /// fails acceptance even with no floor set).
  double min_delivery_ratio = 0.0;
  double max_latency_us = 0.0;     // mean in-network latency ceiling
  double min_jain = 0.0;           // weight-normalised Jain floor
  bool audit_clean = true;         // conservation books must balance
  bool determinism = false;        // run twice; digests must match
  std::string digest;              // expected golden digest; "" = off
  /// Ceiling on the worst cut-to-first-delivery time over the flaps in
  /// the window (a 100 us in-flight guard excluded); a flapping row
  /// that sees no outage fails. 0 = off.
  double max_restore_us = 0.0;
  /// The row is an ablation: every floor it sets (goodput, delivery,
  /// Jain, per-source min_mbps) must be missed; the audit still holds.
  bool ablation = false;
};

/// Most `source` lines a switched topology (mux, line, triangle)
/// takes. Switch 0 gives each source, the agent and up to two trunks a
/// port of their own, and a switch route label carries the port in 8
/// bits: 256 ports less the agent and the triangle's two trunks.
inline constexpr std::size_t kMaxSwitchedSources = 253;

struct ScenarioSpec {
  enum class Topology : std::uint8_t { kP2p, kMux, kLine, kTriangle };
  enum class Scheduler : std::uint8_t { kFifo, kRoundRobin, kDwrr };

  std::string name = "unnamed";
  /// Which plane of the system the scenario regresses (fault-recovery,
  /// signalling-fault, overload, fairness, protection, ...) — reporting
  /// only, but fleet.py groups and the matrix coverage check reads it.
  std::string plane = "baseline";
  Topology topology = Topology::kP2p;
  std::size_t switches = 1;        // line length; ignored elsewhere
  std::uint64_t seed = 1;
  sim::Time warmup = sim::milliseconds(2);
  sim::Time measure = sim::milliseconds(20);
  /// Measurement window under --smoke; 0 = measure / 4.
  sim::Time smoke_measure = 0;

  // Plant knobs (applied to every switch; p2p ignores them).
  bool sts12 = false;              // STS-12c ports instead of STS-3c
  std::size_t queue_cells = 1024;  // shared output pool depth
  std::size_t epd_threshold = 0;   // frame-aware discard; 0 = off
  Scheduler scheduler = Scheduler::kFifo;
  bool wred = false;               // colour-aware WRED band on the pool
  bool efci_rm = false;            // EFCI marking + endpoint RM loop
  bool abr_loop = false;           // ERICA ER stamping + explicit-rate
  bool per_vc_books = false;       // per-VC EPD gate + residency cap
  double cac_utilization = 0.0;    // admission control; 0 = admit all
  bool protection = false;         // protection switching + CC heartbeats
  bool sig_audit = true;           // agent status audit (off for flaps)

  std::vector<TrafficSpec> traffic;
  FaultSpec fault;
  AcceptanceSpec accept;

  sim::Time measure_window(bool smoke) const {
    if (!smoke) return measure;
    return smoke_measure > 0 ? smoke_measure : measure / 4;
  }

  /// Canonical text form; parse_scenario(to_text()) round-trips.
  std::string to_text() const;
};

/// Parses the key=value text form. Returns false and fills `error`
/// (with a line number) on unknown keys, malformed values, or an empty
/// traffic mix.
bool parse_scenario(const std::string& text, ScenarioSpec& out,
                    std::string& error);

/// parse_scenario over a file's contents.
bool load_scenario_file(const std::string& path, ScenarioSpec& out,
                        std::string& error);

/// What one run measured. Filled by sig::run_scenario; evaluated
/// against the spec's acceptance block by evaluate_acceptance.
struct ScenarioResult {
  bool ran = false;           // false = setup failed (see setup_error)
  std::string setup_error;
  double goodput_mbps = 0.0;
  double offered_mbps = 0.0;
  double delivery_ratio = 0.0;
  double latency_mean_us = 0.0;
  double latency_max_us = 0.0;
  double jain_weighted = 1.0;
  std::vector<double> per_flow_mbps;
  std::uint64_t outages = 0;  // flap cuts in the window that restored
  double restore_max_us = 0.0;
  std::uint64_t calls_connected = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t stranded = 0;
  bool audit_clean = true;
  // In-window event census and delivered cells (core::WindowBooks).
  sim::Census events{};
  std::uint64_t cells_delivered = 0;
  std::string digest;         // computed only when the spec needs it
  std::string digest_rerun;   // second run (determinism check)
  std::vector<std::string> failures;  // acceptance misses, human-readable

  bool accepted() const { return ran && failures.empty(); }
};

/// Appends one failure line per missed acceptance criterion to
/// `result.failures` (and one for a failed setup). Pure arithmetic —
/// unit-testable without running a simulation.
void evaluate_acceptance(const ScenarioSpec& spec, ScenarioResult& result);

/// Jain's fairness index over `xs`; 1.0 for empty input.
double jain_index(const std::vector<double>& xs);

/// FNV-1a 64-bit digest over typed words: the one digest the fleet,
/// the golden-determinism tests and hostbench all fold into (each with
/// its own inputs; core::fold_trace is the shared trace fold).
class Digest {
 public:
  void fold(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  void fold_string(const std::string& s) {
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001B3ull;
    }
  }
  std::string hex() const;

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

}  // namespace hni::core
