// Shared bench-binary plumbing: the unified CLI and the JSON emitter.
//
// Every bench_* binary accepts the same two flags:
//
//   --smoke        CI-sized run (shorter windows / fewer sweep points)
//   --json OUT     machine-readable results, google-benchmark JSON shape
//
// so scripts/fleet.py can drive the whole set uniformly: spawn, wait
// with a timeout, read the exit code (benches enforce their own
// acceptance), collect the JSON row(s). The emitter writes the same
// format scripts/bench_compare.py gates on:
//
//   rate rows   carry items_per_second (higher is better, reciprocal
//               real_time for google-benchmark compatibility);
//   score rows  carry "higher_is_better": true and a raw "value"
//               (fairness indices, retention ratios);
//   cost rows   carry "lower_is_better": true and a raw "value"
//               (bytes/VC, time-to-restore);
//   exact rows  carry "exact": true and a raw "value" (deterministic
//               counts such as the event census): any change fails.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace hni::bench {

struct Cli {
  bool smoke = false;
  std::string json;  // empty = no JSON output requested
};

/// Parses the unified bench CLI; exits 2 on anything it does not know.
/// `extra_usage` documents bench-specific flags a caller parsed out of
/// argv before handing the remainder here (none of the current benches
/// need any).
inline Cli parse_cli(int argc, char** argv, const char* extra_usage = "") {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      cli.smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      cli.json = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json OUT.json]%s\n",
                   argv[0], extra_usage);
      std::exit(2);
    }
  }
  return cli;
}

class JsonEmitter {
 public:
  explicit JsonEmitter(std::string executable)
      : executable_(std::move(executable)) {}

  /// Throughput-style row: higher is better, compared as a rate.
  void rate(const std::string& name, double items_per_second) {
    rows_.push_back({name, items_per_second, Kind::kRate});
  }
  /// Direct score (fairness index, retention): higher is better.
  void score(const std::string& name, double value) {
    rows_.push_back({name, value, Kind::kScore});
  }
  /// Direct cost (bytes/VC, latency, time-to-restore): lower is better.
  void cost(const std::string& name, double value) {
    rows_.push_back({name, value, Kind::kCost});
  }
  /// Deterministic figure gated for equality, in either direction.
  void exact(const std::string& name, double value) {
    rows_.push_back({name, value, Kind::kExact});
  }

  std::string to_string() const {
    std::string out = "{\n  \"context\": {\"executable\": \"" + executable_ +
                      "\"},\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      char buf[256];
      switch (r.kind) {
        case Kind::kRate:
          std::snprintf(buf, sizeof buf,
                        "    {\"name\": \"%s\", \"run_type\": \"iteration\", "
                        "\"items_per_second\": %.6g, \"real_time\": %.6g, "
                        "\"time_unit\": \"ns\"}",
                        r.name.c_str(), r.value,
                        r.value > 0 ? 1e9 / r.value : 0.0);
          break;
        case Kind::kScore:
          std::snprintf(buf, sizeof buf,
                        "    {\"name\": \"%s\", \"run_type\": \"iteration\", "
                        "\"higher_is_better\": true, \"value\": %.6g, "
                        "\"real_time\": %.6g, \"time_unit\": \"ns\"}",
                        r.name.c_str(), r.value, r.value);
          break;
        case Kind::kCost:
          std::snprintf(buf, sizeof buf,
                        "    {\"name\": \"%s\", \"run_type\": \"iteration\", "
                        "\"lower_is_better\": true, \"value\": %.6g, "
                        "\"real_time\": %.6g, \"time_unit\": \"ns\"}",
                        r.name.c_str(), r.value, r.value);
          break;
        case Kind::kExact:
          std::snprintf(buf, sizeof buf,
                        "    {\"name\": \"%s\", \"run_type\": \"iteration\", "
                        "\"exact\": true, \"value\": %.10g, "
                        "\"real_time\": %.10g, \"time_unit\": \"ns\"}",
                        r.name.c_str(), r.value, r.value);
          break;
      }
      out += buf;
      out += i + 1 < rows_.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
  }

  /// Writes the JSON to `path`; exits 2 on I/O failure. No-op when
  /// `path` is empty (the caller passed through an unset --json).
  void write_or_die(const std::string& path) const {
    if (path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot write %s\n", executable_.c_str(),
                   path.c_str());
      std::exit(2);
    }
    const std::string text = to_string();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }

 private:
  enum class Kind { kRate, kScore, kCost, kExact };
  struct Row {
    std::string name;
    double value;
    Kind kind;
  };
  std::string executable_;
  std::vector<Row> rows_;
};

}  // namespace hni::bench
