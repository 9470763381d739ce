// Microbenchmarks (google-benchmark): hot paths of the library itself.
//
// These measure the *simulator's* implementation speed — the cost of
// running experiments — not the modeled hardware. Useful for keeping
// the event kernel and the codec paths fast enough that the full-system
// benches above stay cheap.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "aal/aal34.hpp"
#include "aal/aal5.hpp"
#include "atm/crc.hpp"
#include "atm/hec.hpp"
#include "sim/simulator.hpp"
#include "sim/telemetry/metrics.hpp"

using namespace hni;

static void BM_Crc32_9180(benchmark::State& state) {
  const aal::Bytes data = aal::make_pattern(9180, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(atm::crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          9180);
}
BENCHMARK(BM_Crc32_9180);

// The source's per-SDU payload generator and the sink's check. The seed
// passes through DoNotOptimize each iteration, so neither call can be
// folded or hoisted out of the loop.
static void BM_MakePattern_9180(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seed);
    const aal::Bytes pattern = aal::make_pattern(9180, seed);
    benchmark::DoNotOptimize(pattern.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          9180);
}
BENCHMARK(BM_MakePattern_9180);

static void BM_VerifyPattern_9180(benchmark::State& state) {
  std::uint64_t seed = 1;
  const aal::Bytes sdu = aal::make_pattern(9180, seed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seed);
    benchmark::DoNotOptimize(aal::verify_pattern(sdu, seed));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          9180);
}
BENCHMARK(BM_VerifyPattern_9180);

static void BM_Crc10_Cell(benchmark::State& state) {
  const aal::Bytes data = aal::make_pattern(48, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(atm::crc10(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          48);
}
BENCHMARK(BM_Crc10_Cell);

static void BM_HecCompute(benchmark::State& state) {
  std::array<std::uint8_t, 4> header{0x12, 0x34, 0x56, 0x78};
  for (auto _ : state) {
    benchmark::DoNotOptimize(atm::hec_compute(
        std::span<const std::uint8_t, 4>(header.data(), 4)));
  }
}
BENCHMARK(BM_HecCompute);

static void BM_Aal5SegmentReassemble(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const aal::Bytes sdu = aal::make_pattern(n, 3);
  const atm::VcId vc{0, 1};
  for (auto _ : state) {
    auto cells = aal::aal5_segment(sdu, vc);
    aal::Aal5Reassembler rx;
    for (const auto& c : cells) {
      auto d = rx.push(c);
      benchmark::DoNotOptimize(d);
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Aal5SegmentReassemble)->Arg(512)->Arg(9180)->Arg(65535);

static void BM_Aal34SegmentReassemble(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const aal::Bytes sdu = aal::make_pattern(n, 4);
  for (auto _ : state) {
    aal::Aal34Segmenter seg({0, 1});
    auto cells = seg.segment(sdu);
    aal::Aal34Reassembler rx;
    for (const auto& c : cells) {
      auto d = rx.push(c);
      benchmark::DoNotOptimize(d);
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Aal34SegmentReassemble)->Arg(512)->Arg(9180);

namespace {

// The kernel's idiomatic client: a small trivially copyable functor,
// the shape every hot-path call site produces ([this, cell] captures).
// This is the perf-gate metric — scripts/check.sh --bench-compare
// reads its items_per_second out of BENCH_kernel.json.
struct ChainEvent {
  sim::Simulator* sim;
  std::uint64_t* count;
  std::uint64_t limit;
  void operator()() {
    if (++*count < limit) sim->after(1, ChainEvent{sim, count, limit});
  }
};

// A self-rescheduling timer that stops once the shared budget runs out
// — used to exercise the kernel with a deep, populated heap.
struct TimerEvent {
  sim::Simulator* sim;
  std::uint64_t* budget;
  void operator()() {
    if (*budget > 0) {
      --*budget;
      sim->after(100, TimerEvent{sim, budget});
    }
  }
};

}  // namespace

static void BM_SimulatorEventThroughput(benchmark::State& state) {
  constexpr std::uint64_t kEvents = 10000;
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t count = 0;
    sim.after(1, ChainEvent{&sim, &count, kEvents});
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEvents));
}
BENCHMARK(BM_SimulatorEventThroughput);

// The pre-overhaul shape: closures wrapped in std::function (copied,
// heap-allocated). Kept as a reference point for what call sites that
// can't use a plain functor pay.
static void BM_SimulatorEventThroughputStdFunction(
    benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < 10000) sim.after(1, chain);
    };
    sim.after(1, chain);
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimulatorEventThroughputStdFunction);

// Event throughput with `depth` concurrent self-rescheduling timers —
// the heap shape of the scale scenarios (one timer per VC / link /
// engine) rather than a single chain.
static void BM_SimulatorPopulatedHeap(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kBudget = 100000;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t budget = kBudget;
    for (std::uint64_t i = 0; i < depth; ++i) {
      sim.at(static_cast<sim::Time>(i + 1), TimerEvent{&sim, &budget});
    }
    sim.run();
    fired += sim.events_fired();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_SimulatorPopulatedHeap)->Arg(256)->Arg(4096);

// Schedule-then-cancel churn: every fired event schedules a decoy and
// a successor, then cancels the decoy — the shaper-wakeup / signaling-
// timer pattern. Measures O(1) cancel plus lazy stale-node skimming.
static void BM_SimulatorCancelChurn(benchmark::State& state) {
  struct ChurnEvent {
    sim::Simulator* sim;
    std::uint64_t* count;
    std::uint64_t limit;
    void operator()() {
      if (++*count >= limit) return;
      const sim::EventHandle decoy =
          sim->after(2, ChurnEvent{sim, count, limit});
      sim->after(1, ChurnEvent{sim, count, limit});
      sim->cancel(decoy);
    }
  };
  constexpr std::uint64_t kEvents = 10000;
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t count = 0;
    sim.after(1, ChurnEvent{&sim, &count, kEvents});
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEvents));
}
BENCHMARK(BM_SimulatorCancelChurn);

static void BM_CellSerializeRoundtrip(benchmark::State& state) {
  atm::Cell cell;
  cell.header.vc = {3, 1234};
  cell.header.pti = atm::Pti::kUserData1;
  for (auto _ : state) {
    const auto wire = cell.serialize(atm::HeaderFormat::kUni);
    benchmark::DoNotOptimize(
        atm::Cell::deserialize(wire, atm::HeaderFormat::kUni));
  }
}
BENCHMARK(BM_CellSerializeRoundtrip);

// Rendering the metrics tree: about 200 named entries plus one per-VC
// family of N VCs with three rows each, visited in a shuffled order as
// a hash-ordered VC table visits them. hostbench's p2p-manyvc renders
// four such families of 4096 VCs at teardown.
struct MetricsTree {
  struct Vc {
    std::uint16_t vpi, vci;
    sim::Counter cells, efci, pdus;
  };
  sim::MetricsRegistry registry;
  std::vector<Vc> vcs;
  std::vector<double> gauges;

  explicit MetricsTree(std::size_t n) : vcs(n), gauges(20) {
    const sim::MetricScope root(registry, "station.1.bob.nic");
    for (int i = 0; i < 180; ++i) {
      root.sub("layer" + std::to_string(i % 9))
          .counter("counter_" + std::to_string(i))
          .add(static_cast<std::uint64_t>(i) * 977);
    }
    for (std::size_t i = 0; i < gauges.size(); ++i) {
      gauges[i] = 0.1 * static_cast<double>(i);
      root.gauge("gauge_" + std::to_string(i), [g = &gauges[i]] { return *g; });
    }
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = 0; i < n; ++i) {
      vcs[i].vpi = static_cast<std::uint16_t>(i >> 12);
      vcs[i].vci = static_cast<std::uint16_t>(32 + (i & 0xFFF));
      vcs[i].cells.add(i * 3);
      vcs[i].pdus.add(i);
    }
    for (std::size_t i = n; i > 1; --i) {  // deterministic shuffle
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(vcs[i - 1], vcs[x % i]);
    }
    root.sub("rx").vc_family([this](sim::VcRowWriter& rows) {
      for (const Vc& vc : vcs) {
        rows.begin(vc.vpi, vc.vci);
        rows.counter("cells", vc.cells);
        rows.counter("cells_efci_marked", vc.efci);
        rows.counter("pdus", vc.pdus);
      }
    });
  }
};

static void BM_MetricsToJson(benchmark::State& state) {
  const MetricsTree tree(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.registry.to_json());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 3);
}
BENCHMARK(BM_MetricsToJson)->Arg(64)->Arg(4096);

static void BM_MetricsSnapshot(benchmark::State& state) {
  const MetricsTree tree(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.registry.snapshot());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 3);
}
BENCHMARK(BM_MetricsSnapshot)->Arg(4096);

// A main that speaks the fleet's flag dialect on top of
// google-benchmark's own. --smoke maps to the kernel-row subset at one
// repetition; --json PATH maps to --benchmark_out in JSON format. Any
// native --benchmark_* flag passes straight through (fleet.py relies on
// this for the --bench-compare 3-repetition run).
int main(int argc, char** argv) {
  std::vector<std::string> mapped;
  mapped.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      mapped.emplace_back("--benchmark_filter=BM_Simulator");
      mapped.emplace_back("--benchmark_repetitions=1");
      mapped.emplace_back("--benchmark_min_time=0.05");
    } else if (arg == "--json" && i + 1 < argc) {
      mapped.emplace_back(std::string("--benchmark_out=") + argv[++i]);
      mapped.emplace_back("--benchmark_out_format=json");
    } else {
      mapped.emplace_back(arg);
    }
  }
  std::vector<char*> args;
  args.reserve(mapped.size());
  for (std::string& s : mapped) args.push_back(s.data());
  int mapped_argc = static_cast<int>(args.size());
  benchmark::Initialize(&mapped_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(mapped_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
