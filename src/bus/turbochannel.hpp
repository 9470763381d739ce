// Host I/O bus model (TURBOchannel-class).
//
// The paper's host is a DECstation 5000/200 whose TURBOchannel is a
// 32-bit synchronous bus clocked at 25 MHz — 100 MB/s of raw word
// bandwidth. DMA moves blocks ("bursts") of words; each transaction
// additionally pays a fixed overhead (arbitration, address cycle,
// turnaround), and reads pay a memory-access latency. Effective
// bandwidth therefore rises with burst length — the knee of that curve
// is one of the quantities the paper's analysis turns on (bench F2).
//
// The bus is a shared, non-preemptive FIFO server: requests from all
// clients (TX DMA, RX DMA, host programmed I/O) serialize in arrival
// order. Utilization and per-request queueing delay are first-class
// outputs.

#pragma once

#include <cstdint>
#include <string>

#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry/metrics.hpp"

namespace hni::bus {

struct BusConfig {
  double clock_hz = 25e6;        // TURBOchannel: 25 MHz
  std::size_t word_bytes = 4;    // 32-bit data path
  std::size_t max_burst_words = 64;   // longest single transaction
  std::uint32_t overhead_cycles = 5;  // arbitration + address + turnaround
  std::uint32_t read_latency_cycles = 4;  // DRAM access before first word

  sim::Time cycle() const { return sim::cycle_time(clock_hz); }
  double peak_bytes_per_second() const {
    return clock_hz * static_cast<double>(word_bytes);
  }
};

/// Direction of a transfer relative to host memory.
enum class Direction : std::uint8_t {
  kRead,   // host memory -> device (TX path)
  kWrite,  // device -> host memory (RX path)
};

/// The shared bus. Clients submit transfers; the bus arbitrates at
/// burst granularity, round-robin across outstanding transfers (so a
/// short DMA is not head-of-line blocked behind a long one — how real
/// multi-master buses behave). Completions fire at the end of each
/// transfer's final burst.
class Bus {
 public:
  using Done = sim::Action;

  Bus(sim::Simulator& sim, BusConfig config);

  /// The simulation clock this bus runs on (clients schedule retries
  /// and timeouts against it).
  sim::Simulator& sim() { return sim_; }

  /// Submits a transfer of `bytes` (split into bursts internally).
  /// `done` fires when the final burst completes.
  void transfer(std::size_t bytes, Direction dir, Done done);

  /// Fault hook: the arbiter grants no bursts until `duration` from now
  /// (a misbehaving master holding the bus). Queued transfers resume by
  /// themselves; in-flight bursts finish.
  void hold_off(sim::Time duration);
  std::uint64_t holdoffs() const { return holdoffs_.value(); }

  /// Unloaded duration of a transfer of `bytes` (all bursts, overheads
  /// included) — the analytical quantity benches report.
  sim::Time transfer_time(std::size_t bytes, Direction dir) const;

  /// Duration of a single burst of `words` data words.
  sim::Time burst_time(std::size_t words, Direction dir) const;

  /// Programmed I/O: every word is its own transaction (no bursts).
  /// This is what a host CPU pays when it moves cells itself — the
  /// software-SAR baseline's handicap.
  sim::Time pio_time(std::size_t bytes, Direction dir) const;
  void pio_transfer(std::size_t bytes, Direction dir, Done done);

  const BusConfig& config() const { return config_; }

  /// Fraction of elapsed time the bus was moving a transaction,
  /// measured from construction to `now`.
  double utilization(sim::Time now) const;

  std::uint64_t transfers() const { return transfers_.value(); }
  std::uint64_t bytes_moved() const { return bytes_.value(); }
  const sim::RunningStat& queueing_delay_us() const { return queueing_us_; }

  /// Surfaces the bus's books under `scope`.
  void register_metrics(const sim::MetricScope& scope) const {
    scope.expose("transfers", transfers_);
    scope.expose("bytes_moved", bytes_);
    scope.expose("holdoffs", holdoffs_);
    scope.gauge("utilization", [this] { return utilization(sim_.now()); });
    scope.expose_stat("queueing_delay_us", queueing_us_);
  }

 private:
  struct Pending {
    std::size_t words_left = 0;
    std::size_t words_per_burst = 0;
    Direction dir = Direction::kWrite;
    Done done;
    sim::Time submitted = 0;
    bool started = false;
  };

  void submit(std::size_t bytes, Direction dir,
              std::size_t words_per_burst, Done done);
  void serve_next();
  /// The burst in flight ended: completes its transfer if that was the
  /// final burst, then grants the next.
  void burst_done();

  sim::Simulator& sim_;
  BusConfig config_;
  sim::Ring<Pending> queue_;
  bool serving_ = false;
  // Completion of the transfer whose final burst is in flight (the bus
  // serves one burst at a time, so one slot suffices).
  Done finishing_;
  sim::Time held_until_ = 0;
  sim::Counter holdoffs_;
  sim::Time busy_accum_ = 0;  // total time spent transferring
  sim::Time born_;
  sim::Counter transfers_;
  sim::Counter bytes_;
  sim::RunningStat queueing_us_;
};

}  // namespace hni::bus
