// DMA engine: moves bytes between host memory and the board across the
// shared bus.
//
// Data moves between host memory and caller-owned spans: a read fills
// the caller's board buffer, a write lands the caller's bytes. The
// caller keeps the scatter list and the span alive until the transfer's
// completion (or failure) fires; the engine keeps each transfer's state
// in a pooled record, so a warm engine allocates nothing per transfer.
//
// One engine serves one direction of the interface (the paper gives the
// TX and RX sides independent DMA machinery). Requests address host
// memory through scatter/gather lists, so a CS-PDU that spans host pages
// still crosses the bus as maximal bursts. Completion callbacks fire at
// the simulated end of the final burst; the data copy happens at
// completion time, which is faithful for reads (the driver does not
// recycle a posted buffer before completion) and conservative for
// writes.
//
// Fault model: a transfer attempt can be made to fail (fail_next) or the
// whole engine to stall (stall). A failed attempt is retried after an
// exponentially growing backoff, up to max_retries; past that the
// engine gives up and reports the transfer failed, so the caller can
// abort and reclaim rather than wedge. Retries and give-ups are counted
// — they appear in the standard fault/recovery report.

#pragma once

#include <span>

#include "bus/host_memory.hpp"
#include "bus/turbochannel.hpp"
#include "sim/pool.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry/metrics.hpp"

namespace hni::bus {

struct DmaConfig {
  /// Retry attempts after a failed transfer before giving up. 0 means a
  /// single attempt (recovery disabled).
  std::uint32_t max_retries = 4;
  /// First retry delay; doubles per subsequent retry.
  sim::Time retry_backoff = sim::microseconds(2);
};

class DmaEngine {
 public:
  using Done = sim::Action;
  /// Fired instead of the completion when the engine gives up on a
  /// transfer (all retries exhausted).
  using Failed = sim::Action;

  DmaEngine(Bus& bus, HostMemory& memory, DmaConfig config = {})
      : bus_(bus), memory_(memory), config_(config) {}

  /// Reads `out.size()` bytes starting `offset` bytes into `sg` from
  /// host memory into `out` (TX direction). The bytes land when the
  /// transfer completes; the window is checked then, and one beyond the
  /// list throws std::out_of_range out of the simulation run.
  void read(const SgList& sg, std::size_t offset, std::span<std::uint8_t> out,
            Done done, Failed failed = {});

  /// Writes `data` starting `offset` bytes into `sg` (RX direction).
  void write(const SgList& sg, std::size_t offset,
             std::span<const std::uint8_t> data, Done done,
             Failed failed = {});

  // --- fault hooks ------------------------------------------------------
  /// The next `attempts` transfer attempts (including retries) fail.
  void fail_next(std::uint64_t attempts) { faults_pending_ += attempts; }
  /// Holds new transfer attempts until `duration` from now (a wedged
  /// DMA controller; queued work resumes by itself afterwards).
  void stall(sim::Time duration);

  std::uint64_t reads() const { return reads_.value(); }
  std::uint64_t writes() const { return writes_.value(); }
  std::uint64_t bytes_read() const { return bytes_read_.value(); }
  std::uint64_t bytes_written() const { return bytes_written_.value(); }
  /// Failed attempts that were retried.
  std::uint64_t retries() const { return retries_.value(); }
  /// Transfers abandoned after exhausting every retry.
  std::uint64_t gave_up() const { return gave_up_.value(); }
  std::uint64_t stalls() const { return stalls_.value(); }
  const DmaConfig& config() const { return config_; }

  /// Surfaces the engine's books under `scope`.
  void register_metrics(const sim::MetricScope& scope) const {
    scope.expose("reads", reads_);
    scope.expose("writes", writes_);
    scope.expose("bytes_read", bytes_read_);
    scope.expose("bytes_written", bytes_written_);
    scope.expose("retries", retries_);
    scope.expose("gave_up", gave_up_);
    scope.expose("stalls", stalls_);
  }

 private:
  /// One transfer in flight: the caller's window and completions.
  struct Transfer {
    const SgList* sg = nullptr;
    std::size_t offset = 0;
    std::uint8_t* linear = nullptr;  // board side: read dest, write source
    std::size_t len = 0;
    Direction dir = Direction::kRead;
    std::uint32_t tries = 1;  // attempts so far, this one included
    Done done;
    Failed failed;
  };

  /// Copies between host memory and a linear buffer through an S/G
  /// window. `to_host` selects the direction.
  void copy_window(const SgList& sg, std::size_t offset,
                   std::span<std::uint8_t> linear, bool to_host);

  Transfer* start(const SgList& sg, std::size_t offset, std::uint8_t* linear,
                  std::size_t len, Direction dir, Done done, Failed failed);

  /// One attempt of `t` on the bus; retried after a fault until the
  /// retry budget runs out.
  void attempt(Transfer* t);
  void attempt_done(Transfer* t);

  Bus& bus_;
  HostMemory& memory_;
  DmaConfig config_;
  sim::Pool<Transfer> transfers_;
  std::uint64_t faults_pending_ = 0;
  sim::Time stalled_until_ = 0;
  sim::Counter reads_;
  sim::Counter writes_;
  sim::Counter bytes_read_;
  sim::Counter bytes_written_;
  sim::Counter retries_;
  sim::Counter gave_up_;
  sim::Counter stalls_;
};

}  // namespace hni::bus
