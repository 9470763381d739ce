// Protocol engine: a cycle-cost model of the interface's programmable
// processors.
//
// The paper puts one Intel 80960CA-class RISC microcontroller on each
// side of the interface (TX segmentation, RX reassembly) and evaluates
// the design by counting the instructions each per-cell and per-PDU
// firmware operation executes, then comparing the resulting time against
// the cell slot (2.831 us at STS-3c, 707.7 ns at STS-12c). This class is
// exactly that arithmetic plus busy/idle bookkeeping: an Engine is a
// serially-busy resource; work items cost instructions; instructions
// cost cpi/clock seconds.
//
// Queued work stays inside the engine. An idle engine schedules its
// one work item's completion directly; work that arrives while the
// engine is busy waits in the engine's own FIFO ring, and only the
// ring's front item is armed as a kernel event. Each queued item takes
// its kernel sequence number when it is queued (Simulator::reserve_seq)
// and is armed under it, so completions fire in exactly the (time,
// sequence) order one kernel event per item would give, while the
// kernel's heap holds at most two events per engine.

#pragma once

#include <cstdint>
#include <functional>

#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry/metrics.hpp"
#include "sim/telemetry/profiler.hpp"

namespace hni::proc {

struct EngineConfig {
  double clock_hz = 25e6;  // 80960CA shipped at 25/33 MHz
  double cpi = 1.0;        // sustained cycles per instruction (hot loops)
};

class Engine {
 public:
  // sim::Action rather than std::function: completions capture whole
  // cells on the per-cell path, which must not allocate per work item.
  using Done = sim::Action;

  /// Completions are counted under `layer` in the kernel's census.
  Engine(sim::Simulator& sim, EngineConfig config,
         sim::Layer layer = sim::Layer::kTimer);

  /// Time `instructions` take on this engine.
  sim::Time cost(std::uint32_t instructions) const;

  /// Occupies the engine for `instructions`, FIFO behind queued work,
  /// then fires `done`.
  void execute(std::uint32_t instructions, Done done);

  /// As execute(), attributing the work to `phase` of the attached
  /// cycle-budget profiler (no-op attribution when none is attached).
  void execute(sim::CycleProfiler::PhaseId phase, std::uint32_t instructions,
               Done done);

  /// Attaches a cycle-budget profiler; the paths register their phases
  /// against it and attribute work via the phased execute() overload.
  void set_profiler(sim::CycleProfiler* profiler) { profiler_ = profiler; }
  sim::CycleProfiler* profiler() const { return profiler_; }

  /// Occupies the engine for a literal duration (e.g. a CPU stalled on
  /// programmed I/O while the bus moves words).
  void occupy(sim::Time duration, Done done);

  /// True when no work is in progress or queued.
  bool idle() const { return free_at_ <= sim_.now(); }
  sim::Time free_at() const { return free_at_; }

  /// Fraction of time busy since construction.
  double utilization(sim::Time now) const;

  const EngineConfig& config() const { return config_; }
  std::uint64_t instructions_retired() const { return instructions_.value(); }
  std::uint64_t work_items() const { return items_.value(); }

  /// Surfaces the engine's books under `scope`.
  void register_metrics(const sim::MetricScope& scope) const {
    scope.expose("instructions", instructions_);
    scope.expose("work_items", items_);
    scope.gauge("utilization", [this] { return utilization(sim_.now()); });
  }

 private:
  // A work item behind the one in progress: its completion instant and
  // the kernel sequence number reserved when it was queued.
  struct Queued {
    sim::Time when;
    std::uint64_t seq;
    Done done;
  };

  /// Arms the ring's front item under its reserved sequence number.
  void arm_front();
  /// The armed front item's event: pops it, arms the next, runs it.
  void fire_front();

  sim::Simulator& sim_;
  sim::Layer layer_;
  EngineConfig config_;
  sim::CycleProfiler* profiler_ = nullptr;
  sim::Time free_at_ = 0;
  sim::Time busy_accum_ = 0;
  sim::Time born_;
  sim::Counter instructions_;
  sim::Counter items_;
  sim::Ring<Queued> queue_;
};

}  // namespace hni::proc
