#include "core/station.hpp"

namespace hni::core {

namespace {
constexpr std::size_t kHostMemoryBytes = 16u << 20;  // 16 MiB
constexpr std::size_t kHostPageBytes = 4096;
}  // namespace

Station::Station(sim::Simulator& sim, StationConfig config)
    : config_(std::move(config)),
      sim_(sim),
      bus_(sim, config_.bus),
      memory_(kHostMemoryBytes, kHostPageBytes),
      nic_(sim, bus_, memory_, config_.nic),
      host_(sim, memory_, nic_, config_.host) {}

}  // namespace hni::core
