// On-board reassembly buffer manager.
//
// The receive side stores in-progress PDUs in board memory organized as
// linked chains of fixed-size containers (a container holds a number of
// 48-octet cell payloads plus its valid bitmap) — the organization the
// host-interface literature of the period converged on for variable-size
// frames with random access. Functional payload bytes live in the AAL
// reassembler; this class is the *resource* model: it accounts container
// occupancy, refuses allocations when the pool is exhausted (which the
// RX path turns into a dropped PDU), and reports high-water marks so
// experiments can size board memory.

#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "atm/cell.hpp"
#include "sim/flat_table.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace hni::nic {

// Per-container bytes beyond the cell payloads: valid bitmap + link.
inline constexpr std::size_t kContainerOverheadBytes = 4;

struct BoardMemoryConfig {
  std::size_t containers = 2048;      // pool size
  std::size_t cells_per_container = 32;

  std::size_t container_bytes() const {
    return cells_per_container * atm::kPayloadSize + kContainerOverheadBytes;
  }
  std::size_t total_bytes() const { return containers * container_bytes(); }
};

/// Tracks container chains keyed by an opaque chain id (the RX path uses
/// the VC; the TX path a staging id).
class BoardMemory {
 public:
  BoardMemory(sim::Simulator& sim, BoardMemoryConfig config)
      : sim_(sim), config_(config) {}

  /// Accounts one more cell on `chain`; allocates a container when the
  /// chain's tail is full. Returns false — without accounting the cell —
  /// when the pool is exhausted.
  bool add_cell(std::uint64_t chain);

  /// Releases the chain's containers (PDU delivered or abandoned).
  void release(std::uint64_t chain);

  /// Containers a chain currently holds.
  std::size_t chain_containers(std::uint64_t chain) const;

  // --- fault hooks ------------------------------------------------------
  /// Squeezes the pool: allocations refuse once `containers` are in use
  /// (models board memory claimed by diagnostics/another function).
  /// Already-allocated containers above the limit stay valid until
  /// released. No-op restriction beyond the configured pool size.
  void set_capacity_limit(std::size_t containers);
  /// Restores the full configured pool.
  void clear_capacity_limit() { limit_ = config_.containers; }
  /// Pool size allocations are currently checked against.
  std::size_t effective_containers() const {
    return std::min(limit_, config_.containers);
  }

  std::size_t containers_in_use() const { return in_use_; }
  double peak_in_use() const { return usage_.max(); }
  std::uint64_t alloc_failures() const { return failures_.value(); }
  /// Cumulative container allocations / releases. Conservation:
  /// allocated() == released() + containers_in_use(), always.
  std::uint64_t allocated() const { return allocated_.value(); }
  std::uint64_t released() const { return released_.value(); }
  const BoardMemoryConfig& config() const { return config_; }

 private:
  struct Chain {
    std::size_t containers = 0;
    std::size_t cells_in_tail = 0;
  };

  sim::Simulator& sim_;
  BoardMemoryConfig config_;
  // Open-addressing map: the RX path touches a chain per cell, so the
  // lookup shares the data plane's cache-compact table (arena-pooled,
  // erase leaves no tombstones under per-PDU churn).
  sim::FlatMap<std::uint64_t, Chain> chains_;
  std::size_t in_use_ = 0;
  std::size_t limit_ = static_cast<std::size_t>(-1);
  sim::TimeWeightedStat usage_;
  sim::Counter failures_;
  sim::Counter allocated_;
  sim::Counter released_;
};

}  // namespace hni::nic
