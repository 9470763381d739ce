// Declarative fault injection for chaos experiments.
//
// Components (or the scenario wiring them) register named *fault
// points* — "rx.dma.fail", "link0.flap", "board.squeeze" — each backed
// by a handler that perturbs the component when the fault begins and
// (for faults with a duration) restores it when the fault ends. The
// injector then executes a schedule against those points: explicit
// specs for targeted tests, or a seeded random "chaos" draw for soak
// runs. All randomness comes from the injector's own sim::Rng, so the
// same seed produces bit-identical fault schedules — a chaos run is as
// reproducible as any other experiment.
//
// Every fired begin/end is appended to a log; tests serialize the log
// to assert determinism and to correlate faults with recovery actions.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace hni::sim {

enum class FaultPhase : std::uint8_t { kBegin, kEnd };

/// One fired fault transition, as delivered to a point's handler and
/// recorded in the log.
struct FaultEvent {
  std::string point;
  FaultPhase phase = FaultPhase::kBegin;
  Time at = 0;          // when the transition fired
  Time duration = 0;    // 0 = one-shot (no kEnd follows)
  double magnitude = 1.0;  // point-specific intensity
  std::uint64_t id = 0;    // pairs a kBegin with its kEnd
};

class FaultInjector {
 public:
  using Handler = std::function<void(const FaultEvent&)>;

  /// A declarative fault against a registered point.
  struct Spec {
    std::string point;
    Time at = 0;           // first activation (absolute sim time)
    Time duration = 0;     // 0 = one-shot: kBegin only
    double magnitude = 1.0;
    std::uint64_t repeat = 1;  // occurrences
    Time period = 0;           // spacing between occurrences
  };

  explicit FaultInjector(Simulator& sim, std::uint64_t seed = 1)
      : sim_(sim), rng_(seed) {}

  /// Registers a fault point. `default_magnitude` is what chaos-mode
  /// draws use (explicit Specs carry their own).
  void register_point(std::string name, Handler handler,
                      double default_magnitude = 1.0);
  bool has_point(const std::string& name) const;
  std::size_t points() const { return points_.size(); }

  /// Schedules `spec` (throws std::invalid_argument on unknown point).
  void schedule(const Spec& spec);

  /// Chaos mode: draws `count` faults across all registered points,
  /// activation uniform in [start, horizon), duration exponential with
  /// mean `mean_duration` (clamped to >= 1 ps), magnitude the point's
  /// default. Draws happen now, in registration order of nothing —
  /// purely from the injector's rng — so the schedule is a function of
  /// (registered points, arguments, seed) alone.
  void chaos(Time start, Time horizon, std::size_t count,
             Time mean_duration);

  Rng& rng() { return rng_; }

  std::uint64_t faults_begun() const { return begun_.value(); }

  /// Every fired transition, in firing order.
  const std::vector<FaultEvent>& log() const { return log_; }
  /// One line per log entry — convenient for determinism comparisons.
  std::string log_string() const;

 private:
  struct Point {
    std::string name;
    Handler handler;
    double default_magnitude = 1.0;
  };

  const Point* find(const std::string& name) const;
  void fire(const Point& point, FaultPhase phase, Time duration,
            double magnitude, std::uint64_t id);

  Simulator& sim_;
  Rng rng_;
  std::vector<Point> points_;  // insertion order: chaos draws index into it
  std::vector<FaultEvent> log_;
  Counter begun_;
  std::uint64_t next_id_ = 1;
};

}  // namespace hni::sim
