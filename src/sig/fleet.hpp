// The scenario fleet runner: builds a live testbed from a declarative
// core::ScenarioSpec, runs it, and measures everything the acceptance
// block gates on.
//
// One function replaces the copy-pasted setup blocks of the bench
// suite:
//
//   * p2p       a translation onto core::run_p2p, the one two-station
//               runner the paper benches use too: a duplex link
//               (optionally lossy or flapping), one VC per flow.
//   * mux       N source stations into one switch, one sink station —
//               the overload/fairness plant. Calls are *signalled*
//               (SETUP/CONNECT through the agent), so contracts,
//               weights, meters and CAC ride the real control plane.
//   * line      N switches in a row, sources on the first, sink on the
//               last; trunks between neighbours carry the loss/flap
//               fault profile.
//   * triangle  the protection plant: sources on switch 0, sink on
//               switch 1, a standby path through switch 2; the first
//               trunk (0<->1) takes the flap schedule.
//
// Every topology measures through the one window, core::Meas: warmup,
// the measured window, then stop, drain and the full conservation
// audit. Delivery counts only SDUs generated inside the window, so it
// never exceeds 1. Acceptance is evaluated in-process
// (core::evaluate_acceptance); a digest over the full trace stream +
// telemetry snapshot is computed when the spec asks for golden or
// determinism checking.

#pragma once

#include <string>
#include <vector>

#include "core/scenario_spec.hpp"

namespace hni::sig {

/// Runs `spec` (twice when accept.determinism is set), fills the
/// result, and evaluates acceptance into result.failures.
core::ScenarioResult run_scenario(const core::ScenarioSpec& spec,
                                  bool smoke = false);

/// The built-in run matrix: every plane the repo's bench series
/// regresses, one declarative row each. Stable order.
const std::vector<core::ScenarioSpec>& builtin_scenarios();

/// Looks `name` up in the built-in registry, then (when `scenario_dir`
/// is non-empty) as `<scenario_dir>/<name>.scn`. Returns false with an
/// error when neither resolves.
bool find_scenario(const std::string& name, const std::string& scenario_dir,
                   core::ScenarioSpec& out, std::string& error);

}  // namespace hni::sig
