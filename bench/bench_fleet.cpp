// bench_fleet: the scenario fleet driver.
//
//   bench_fleet --list                       names + planes, one per line
//   bench_fleet --scenario NAME [...]        run named scenario(s)
//   bench_fleet --spec FILE.scn              run a spec straight from a file
//   bench_fleet --scenario-dir DIR           where --scenario resolves .scn
//   bench_fleet --smoke                      CI-sized measurement windows
//   bench_fleet --json OUT.json              machine-readable results
//
// With no scenario selection the whole built-in matrix runs. Exit
// status: 0 all accepted, 1 any acceptance miss, 2 usage/spec errors.
// JSON rows follow the google-benchmark shape scripts/bench_compare.py
// reads, one goodput rate row per scenario plus score rows for the
// acceptance verdict and fairness/delivery where the spec gates on
// them — so a BENCH_fleet.json baseline can ratchet the whole matrix.
//
// After the verdict table comes the event census: kernel events per
// delivered cell in the measurement window, in total and per layer
// (sim::Layer). The census is deterministic, so its JSON rows
// (fleet/<scenario>/events_per_cell[/<layer>]) are "exact" rows that
// bench_compare.py gates for equality.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/scenario_spec.hpp"
#include "sig/fleet.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--scenario NAME]... [--spec FILE.scn]...\n"
               "          [--scenario-dir DIR] [--smoke] [--json OUT.json]\n",
               argv0);
  std::exit(2);
}

struct CensusRow {
  std::string scenario;
  hni::sim::Census events;
  std::uint64_t cells = 0;
};

// Events per delivered cell, total then per layer: printed as a table
// and emitted as exact JSON rows.
void emit_census(const std::vector<CensusRow>& rows,
                 hni::bench::JsonEmitter& json) {
  using hni::sim::kLayerCount;
  const auto layer = [](std::size_t i) {
    return std::string(hni::sim::layer_name(static_cast<hni::sim::Layer>(i)));
  };
  std::printf("\nevent census: kernel events per delivered cell, "
              "in-window\n%-26s %9s", "scenario", "total");
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    std::printf(" %9s", layer(i).c_str());
  }
  std::printf("\n");
  for (const CensusRow& row : rows) {
    const auto per_cell = [&row](std::uint64_t events) {
      return row.cells == 0 ? 0.0
                            : static_cast<double>(events) /
                                  static_cast<double>(row.cells);
    };
    const std::string name = "fleet/" + row.scenario + "/events_per_cell";
    std::uint64_t total = 0;
    for (const std::uint64_t n : row.events) total += n;
    std::printf("%-26s %9.3f", row.scenario.c_str(), per_cell(total));
    json.exact(name, per_cell(total));
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      std::printf(" %9.3f", per_cell(row.events[i]));
      json.exact(name + "/" + layer(i), per_cell(row.events[i]));
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using hni::core::ScenarioResult;
  using hni::core::ScenarioSpec;

  bool list = false;
  bool smoke = false;
  std::string json_path;
  std::string scenario_dir;
  std::vector<std::string> names;
  std::vector<std::string> spec_files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--scenario" && i + 1 < argc) {
      names.emplace_back(argv[++i]);
    } else if (arg == "--spec" && i + 1 < argc) {
      spec_files.emplace_back(argv[++i]);
    } else if (arg == "--scenario-dir" && i + 1 < argc) {
      scenario_dir = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      usage(argv[0]);
    }
  }

  if (list) {
    for (const ScenarioSpec& s : hni::sig::builtin_scenarios()) {
      std::printf("%s %s\n", s.name.c_str(), s.plane.c_str());
    }
    return 0;
  }

  std::vector<ScenarioSpec> matrix;
  std::string error;
  for (const std::string& name : names) {
    ScenarioSpec s;
    if (!hni::sig::find_scenario(name, scenario_dir, s, error)) {
      std::fprintf(stderr, "bench_fleet: %s\n", error.c_str());
      return 2;
    }
    matrix.push_back(s);
  }
  for (const std::string& file : spec_files) {
    ScenarioSpec s;
    if (!hni::core::load_scenario_file(file, s, error)) {
      std::fprintf(stderr, "bench_fleet: %s\n", error.c_str());
      return 2;
    }
    matrix.push_back(s);
  }
  if (matrix.empty()) matrix = hni::sig::builtin_scenarios();

  hni::bench::JsonEmitter json("bench_fleet");
  std::vector<CensusRow> census;
  bool all_ok = true;
  std::printf("%-26s %-16s %10s %9s %9s %7s  %s\n", "scenario", "plane",
              "goodput", "delivery", "lat-mean", "jain", "verdict");
  for (const ScenarioSpec& spec : matrix) {
    const ScenarioResult r = hni::sig::run_scenario(spec, smoke);
    const bool ok = r.accepted();
    all_ok = all_ok && ok;
    std::printf("%-26s %-16s %8.2f M %9.3f %7.1f us %7.4f  %s\n",
                spec.name.c_str(), spec.plane.c_str(), r.goodput_mbps,
                r.delivery_ratio, r.latency_mean_us, r.jain_weighted,
                ok ? "PASS" : "FAIL");
    for (const std::string& f : r.failures) {
      std::printf("    miss: %s\n", f.c_str());
    }
    // The quantities the new-style floors gate, when a row sets them.
    if (std::any_of(spec.traffic.begin(), spec.traffic.end(),
                    [](const auto& t) { return t.min_mbps > 0; })) {
      std::printf("    per-source Mb/s:");
      for (const double mbps : r.per_flow_mbps) std::printf(" %.2f", mbps);
      std::printf("\n");
    }
    if (spec.accept.max_restore_us > 0) {
      std::printf("    restore: worst %.1f us over %llu outages\n",
                  r.restore_max_us,
                  static_cast<unsigned long long>(r.outages));
    }
    if (!ok) {
      std::printf("    detail: offered=%.2fM calls=%llu reroutes=%llu "
                  "stranded=%llu audit=%s\n",
                  r.offered_mbps,
                  static_cast<unsigned long long>(r.calls_connected),
                  static_cast<unsigned long long>(r.reroutes),
                  static_cast<unsigned long long>(r.stranded),
                  r.audit_clean ? "clean" : "DIRTY");
    }
    json.rate("fleet/" + spec.name + "/goodput",
              r.goodput_mbps * 1e6 / 8.0);  // bytes/s, a true rate
    json.score("fleet/" + spec.name + "/accepted", ok ? 1.0 : 0.0);
    if (spec.accept.min_delivery_ratio > 0) {
      json.score("fleet/" + spec.name + "/delivery", r.delivery_ratio);
    }
    if (spec.accept.min_jain > 0) {
      json.score("fleet/" + spec.name + "/jain", r.jain_weighted);
    }
    if (spec.accept.max_latency_us > 0) {
      json.cost("fleet/" + spec.name + "/latency_us", r.latency_mean_us);
    }
    census.push_back({spec.name, r.events, r.cells_delivered});
  }
  emit_census(census, json);
  json.write_or_die(json_path);
  return all_ok ? 0 : 1;
}
