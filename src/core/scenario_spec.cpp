#include "core/scenario_spec.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

namespace hni::core {

namespace {

// Shortest decimal form that parses back to the same double, so
// parse(to_text(s)) round-trips at the string level too.
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

const char* topology_name(ScenarioSpec::Topology t) {
  switch (t) {
    case ScenarioSpec::Topology::kP2p: return "p2p";
    case ScenarioSpec::Topology::kMux: return "mux";
    case ScenarioSpec::Topology::kLine: return "line";
    case ScenarioSpec::Topology::kTriangle: return "triangle";
  }
  return "?";
}

const char* scheduler_name(ScenarioSpec::Scheduler s) {
  switch (s) {
    case ScenarioSpec::Scheduler::kFifo: return "fifo";
    case ScenarioSpec::Scheduler::kRoundRobin: return "rr";
    case ScenarioSpec::Scheduler::kDwrr: return "dwrr";
  }
  return "?";
}

const char* kind_name(TrafficSpec::Kind k) {
  switch (k) {
    case TrafficSpec::Kind::kCbr: return "cbr";
    case TrafficSpec::Kind::kPoisson: return "poisson";
    case TrafficSpec::Kind::kOnOff: return "onoff";
    case TrafficSpec::Kind::kGreedy: return "greedy";
  }
  return "?";
}

bool parse_bool(const std::string& v, bool& out) {
  if (v == "on" || v == "true" || v == "1") {
    out = true;
    return true;
  }
  if (v == "off" || v == "false" || v == "0") {
    out = false;
    return true;
  }
  return false;
}

bool parse_double(const std::string& v, double& out) {
  char* end = nullptr;
  out = std::strtod(v.c_str(), &end);
  return end != v.c_str() && *end == '\0' && std::isfinite(out);
}

// A finite value at or above zero: rates, burst lengths, floors.
bool parse_nonneg(const std::string& v, double& out) {
  return parse_double(v, out) && out >= 0;
}

// strtoull would accept a sign (and wrap "-1" to 2^64 - 1).
bool parse_u64(const std::string& v, std::uint64_t& out) {
  if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(v.c_str(), &end, 10);
  return *end == '\0' && errno == 0;
}

// A microsecond count whose picosecond sim::Time does not overflow.
bool parse_us(const std::string& v, sim::Time& out) {
  std::uint64_t u = 0;
  if (!parse_u64(v, u) ||
      u > static_cast<std::uint64_t>(std::numeric_limits<sim::Time>::max() /
                                     sim::kMicrosecond)) {
    return false;
  }
  out = static_cast<sim::Time>(u) * sim::kMicrosecond;
  return true;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

bool parse_source(const std::string& value, TrafficSpec& out,
                  std::string& error) {
  std::istringstream in(value);
  std::string kind;
  in >> kind;
  if (kind == "cbr") {
    out.kind = TrafficSpec::Kind::kCbr;
  } else if (kind == "poisson") {
    out.kind = TrafficSpec::Kind::kPoisson;
  } else if (kind == "onoff") {
    out.kind = TrafficSpec::Kind::kOnOff;
  } else if (kind == "greedy") {
    out.kind = TrafficSpec::Kind::kGreedy;
  } else {
    error = "unknown source kind '" + kind + "'";
    return false;
  }
  std::string tok;
  while (in >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      error = "source attribute '" + tok + "' is not key=value";
      return false;
    }
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    std::uint64_t u = 0;
    bool ok = true;
    if (key == "rate_mbps") {
      ok = parse_double(val, out.rate_mbps);
    } else if (key == "sdu") {
      ok = parse_u64(val, u);
      out.sdu_bytes = static_cast<std::size_t>(u);
    } else if (key == "pcr_mbps") {
      ok = parse_nonneg(val, out.pcr_mbps);
    } else if (key == "scr_mbps") {
      ok = parse_nonneg(val, out.scr_mbps);
    } else if (key == "weight") {
      ok = parse_u64(val, u) && u >= 1 && u <= 0xFFFF;
      out.weight = static_cast<std::uint16_t>(u);
    } else if (key == "abr") {
      ok = parse_bool(val, out.abr);
    } else if (key == "min_mbps") {
      ok = parse_nonneg(val, out.min_mbps);
    } else {
      error = "unknown source attribute '" + key + "'";
      return false;
    }
    if (!ok) {
      error = "bad value for source attribute '" + key + "'";
      return false;
    }
  }
  // The receiver reads each SDU's index from its first 8 bytes.
  if (out.sdu_bytes < 8) {
    error = "source sdu must be at least 8 bytes";
    return false;
  }
  if (out.kind != TrafficSpec::Kind::kGreedy && !(out.rate_mbps > 0)) {
    error = "source rate_mbps must be positive";
    return false;
  }
  return true;
}

}  // namespace

std::string ScenarioSpec::to_text() const {
  std::ostringstream out;
  out << "name = " << name << "\n";
  out << "plane = " << plane << "\n";
  out << "topology = " << topology_name(topology) << "\n";
  if (topology == Topology::kLine) out << "switches = " << switches << "\n";
  out << "seed = " << seed << "\n";
  out << "warmup_us = " << warmup / sim::kMicrosecond << "\n";
  out << "measure_us = " << measure / sim::kMicrosecond << "\n";
  if (smoke_measure > 0) {
    out << "smoke_measure_us = " << smoke_measure / sim::kMicrosecond << "\n";
  }
  out << "line = " << (sts12 ? "sts12c" : "sts3c") << "\n";
  out << "queue_cells = " << queue_cells << "\n";
  if (epd_threshold > 0) out << "epd_threshold = " << epd_threshold << "\n";
  out << "scheduler = " << scheduler_name(scheduler) << "\n";
  if (wred) out << "wred = on\n";
  if (efci_rm) out << "efci_rm = on\n";
  if (abr_loop) out << "abr_loop = on\n";
  if (per_vc_books) out << "per_vc_books = on\n";
  if (cac_utilization > 0) {
    out << "cac = " << fmt_double(cac_utilization) << "\n";
  }
  if (protection) out << "protection = on\n";
  if (!sig_audit) out << "sig_audit = off\n";
  for (const TrafficSpec& t : traffic) {
    out << "source = " << kind_name(t.kind)
        << " rate_mbps=" << fmt_double(t.rate_mbps) << " sdu=" << t.sdu_bytes;
    if (t.pcr_mbps > 0) out << " pcr_mbps=" << fmt_double(t.pcr_mbps);
    if (t.scr_mbps > 0) out << " scr_mbps=" << fmt_double(t.scr_mbps);
    if (t.weight != 1) out << " weight=" << t.weight;
    if (t.abr) out << " abr=on";
    if (t.min_mbps > 0) out << " min_mbps=" << fmt_double(t.min_mbps);
    out << "\n";
  }
  if (fault.cell_loss_rate > 0) {
    out << "loss_rate = " << fmt_double(fault.cell_loss_rate) << "\n";
  }
  if (fault.loss_burst_cells > 0) {
    out << "loss_burst = " << fmt_double(fault.loss_burst_cells) << "\n";
  }
  if (fault.flap_period > 0) {
    out << "flap_period_us = " << fault.flap_period / sim::kMicrosecond
        << "\n";
    out << "flap_down_us = " << fault.flap_down / sim::kMicrosecond << "\n";
  }
  if (fault.sig_drop_rate > 0) {
    out << "sig_drop = " << fmt_double(fault.sig_drop_rate) << "\n";
  }
  if (accept.min_goodput_mbps > 0) {
    out << "accept_goodput_mbps = " << fmt_double(accept.min_goodput_mbps)
        << "\n";
  }
  if (accept.min_delivery_ratio > 0) {
    out << "accept_delivery = " << fmt_double(accept.min_delivery_ratio)
        << "\n";
  }
  if (accept.max_latency_us > 0) {
    out << "accept_latency_us = " << fmt_double(accept.max_latency_us)
        << "\n";
  }
  if (accept.min_jain > 0) {
    out << "accept_jain = " << fmt_double(accept.min_jain) << "\n";
  }
  if (!accept.audit_clean) out << "accept_audit = off\n";
  if (accept.determinism) out << "accept_determinism = on\n";
  if (!accept.digest.empty()) {
    out << "accept_digest = " << accept.digest << "\n";
  }
  if (accept.max_restore_us > 0) {
    out << "accept_restore_us = " << fmt_double(accept.max_restore_us)
        << "\n";
  }
  if (accept.ablation) out << "ablation = on\n";
  return out.str();
}

bool parse_scenario(const std::string& text, ScenarioSpec& out,
                    std::string& error) {
  out = ScenarioSpec{};
  out.traffic.clear();
  bool has_switches = false;
  int excess_source_line = 0;  // the first source past the switched limit
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  const auto fail = [&](const std::string& what) {
    error = "line " + std::to_string(lineno) + ": " + what;
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return fail("expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string val = trim(line.substr(eq + 1));
    if (key.empty() || val.empty()) return fail("expected 'key = value'");

    std::uint64_t u = 0;
    bool ok = true;
    if (key == "name") {
      out.name = val;
    } else if (key == "plane") {
      out.plane = val;
    } else if (key == "topology") {
      if (val == "p2p") {
        out.topology = ScenarioSpec::Topology::kP2p;
      } else if (val == "mux") {
        out.topology = ScenarioSpec::Topology::kMux;
      } else if (val == "line") {
        out.topology = ScenarioSpec::Topology::kLine;
      } else if (val == "triangle") {
        out.topology = ScenarioSpec::Topology::kTriangle;
      } else {
        return fail("unknown topology '" + val + "'");
      }
    } else if (key == "switches") {
      ok = parse_u64(val, u) && u >= 2 && u <= 16;
      out.switches = static_cast<std::size_t>(u);
      has_switches = true;
    } else if (key == "seed") {
      ok = parse_u64(val, out.seed);
    } else if (key == "warmup_us") {
      ok = parse_us(val, out.warmup);
    } else if (key == "measure_us") {
      ok = parse_us(val, out.measure) && out.measure > 0;
    } else if (key == "smoke_measure_us") {
      ok = parse_us(val, out.smoke_measure) && out.smoke_measure > 0;
    } else if (key == "line") {
      if (val == "sts3c") {
        out.sts12 = false;
      } else if (val == "sts12c") {
        out.sts12 = true;
      } else {
        return fail("unknown line rate '" + val + "'");
      }
    } else if (key == "queue_cells") {
      ok = parse_u64(val, u) && u >= 16;
      out.queue_cells = static_cast<std::size_t>(u);
    } else if (key == "epd_threshold") {
      ok = parse_u64(val, u);
      out.epd_threshold = static_cast<std::size_t>(u);
    } else if (key == "scheduler") {
      if (val == "fifo") {
        out.scheduler = ScenarioSpec::Scheduler::kFifo;
      } else if (val == "rr") {
        out.scheduler = ScenarioSpec::Scheduler::kRoundRobin;
      } else if (val == "dwrr") {
        out.scheduler = ScenarioSpec::Scheduler::kDwrr;
      } else {
        return fail("unknown scheduler '" + val + "'");
      }
    } else if (key == "wred") {
      ok = parse_bool(val, out.wred);
    } else if (key == "efci_rm") {
      ok = parse_bool(val, out.efci_rm);
    } else if (key == "abr_loop") {
      ok = parse_bool(val, out.abr_loop);
    } else if (key == "per_vc_books") {
      ok = parse_bool(val, out.per_vc_books);
    } else if (key == "cac") {
      ok = parse_double(val, out.cac_utilization) &&
           out.cac_utilization >= 0 && out.cac_utilization <= 1.0;
    } else if (key == "protection") {
      ok = parse_bool(val, out.protection);
    } else if (key == "sig_audit") {
      ok = parse_bool(val, out.sig_audit);
    } else if (key == "source") {
      TrafficSpec t;
      std::string serr;
      if (!parse_source(val, t, serr)) return fail(serr);
      out.traffic.push_back(t);
      if (out.traffic.size() == kMaxSwitchedSources + 1) {
        excess_source_line = lineno;
      }
    } else if (key == "loss_rate") {
      ok = parse_nonneg(val, out.fault.cell_loss_rate) &&
           out.fault.cell_loss_rate < 1.0;
    } else if (key == "loss_burst") {
      ok = parse_nonneg(val, out.fault.loss_burst_cells);
    } else if (key == "flap_period_us") {
      ok = parse_us(val, out.fault.flap_period);
    } else if (key == "flap_down_us") {
      ok = parse_us(val, out.fault.flap_down);
    } else if (key == "sig_drop") {
      ok = parse_double(val, out.fault.sig_drop_rate) &&
           out.fault.sig_drop_rate >= 0 && out.fault.sig_drop_rate < 1.0;
    } else if (key == "accept_goodput_mbps") {
      ok = parse_nonneg(val, out.accept.min_goodput_mbps);
    } else if (key == "accept_delivery") {
      ok = parse_nonneg(val, out.accept.min_delivery_ratio);
    } else if (key == "accept_latency_us") {
      ok = parse_nonneg(val, out.accept.max_latency_us);
    } else if (key == "accept_jain") {
      ok = parse_nonneg(val, out.accept.min_jain);
    } else if (key == "accept_restore_us") {
      ok = parse_nonneg(val, out.accept.max_restore_us);
    } else if (key == "ablation") {
      ok = parse_bool(val, out.accept.ablation);
    } else if (key == "accept_audit") {
      ok = parse_bool(val, out.accept.audit_clean);
    } else if (key == "accept_determinism") {
      ok = parse_bool(val, out.accept.determinism);
    } else if (key == "accept_digest") {
      out.accept.digest = val;
    } else {
      return fail("unknown key '" + key + "'");
    }
    if (!ok) return fail("bad value '" + val + "' for key '" + key + "'");
  }
  if (out.traffic.empty()) {
    error = "scenario has no traffic sources";
    return false;
  }
  if (out.fault.flap_period > 0 &&
      out.fault.flap_down >= out.fault.flap_period) {
    error = "flap_down_us must be below flap_period_us";
    return false;
  }
  if (excess_source_line > 0 &&
      out.topology != ScenarioSpec::Topology::kP2p) {
    error = "line " + std::to_string(excess_source_line) +
            ": source: a switched topology takes at most " +
            std::to_string(kMaxSwitchedSources) + " sources";
    return false;
  }
  // to_text() writes switches only for a line, so it would not survive.
  if (has_switches && out.topology != ScenarioSpec::Topology::kLine) {
    error = "switches is allowed only with topology = line";
    return false;
  }
  if (out.accept.max_restore_us > 0 && out.fault.flap_period == 0) {
    error = "accept_restore_us needs flap_period_us";
    return false;
  }
  const AcceptanceSpec& a = out.accept;
  if (a.ablation && !(a.min_goodput_mbps > 0 || a.min_delivery_ratio > 0 ||
                      a.min_jain > 0 ||
                      std::any_of(out.traffic.begin(), out.traffic.end(),
                                  [](const TrafficSpec& t) {
                                    return t.min_mbps > 0;
                                  }))) {
    error = "ablation = on needs a floor to miss";
    return false;
  }
  return true;
}

bool load_scenario_file(const std::string& path, ScenarioSpec& out,
                        std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (!parse_scenario(text.str(), out, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0, sq = 0;
  for (const double x : xs) {
    sum += x;
    sq += x * x;
  }
  if (sq <= 0) return 0.0;
  return sum * sum / (static_cast<double>(xs.size()) * sq);
}

void evaluate_acceptance(const ScenarioSpec& spec, ScenarioResult& r) {
  char buf[192];
  const auto miss = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof buf, fmt, args...);
    r.failures.push_back(buf);
  };
  if (!r.ran) {
    miss("setup failed: %s", r.setup_error.empty() ? "unknown"
                                                   : r.setup_error.c_str());
    return;
  }
  const AcceptanceSpec& a = spec.accept;
  // A floor is a miss when the result falls below it; on an ablation
  // row the miss is reaching it.
  const auto check_floor = [&](const std::string& what, double got, double want) {
    if (want <= 0) return;
    if (!a.ablation && got < want) {
      miss("%s %.4f below floor %.4f", what.c_str(), got, want);
    } else if (a.ablation && got >= want) {
      miss("ablation: %s %.4f reached floor %.4f", what.c_str(), got, want);
    }
  };
  check_floor("goodput Mb/s", r.goodput_mbps, a.min_goodput_mbps);
  // Always on: the ratio counts in-window SDUs only, so above 1 means
  // the window books themselves are wrong.
  if (r.delivery_ratio > 1.0) {
    miss("delivery ratio %.3f above 1", r.delivery_ratio);
  }
  check_floor("delivery ratio", r.delivery_ratio, a.min_delivery_ratio);
  if (a.max_latency_us > 0 && r.latency_mean_us > a.max_latency_us) {
    miss("mean latency %.1f us above ceiling %.1f", r.latency_mean_us,
         a.max_latency_us);
  }
  check_floor("weighted Jain", r.jain_weighted, a.min_jain);
  for (std::size_t i = 0; i < spec.traffic.size(); ++i) {
    check_floor("source " + std::to_string(i) + " Mb/s",
          i < r.per_flow_mbps.size() ? r.per_flow_mbps[i] : 0.0,
          spec.traffic[i].min_mbps);
  }
  if (a.max_restore_us > 0 &&
      (r.outages == 0 || r.restore_max_us > a.max_restore_us)) {
    miss("worst restore %.1f us over %" PRIu64 " outages, ceiling %.1f",
         r.restore_max_us, r.outages, a.max_restore_us);
  }
  if (a.audit_clean && (!r.audit_clean || r.stranded != 0)) {
    miss("conservation audit failed (clean=%d stranded=%" PRIu64 ")",
         r.audit_clean ? 1 : 0, r.stranded);
  }
  if (!a.digest.empty() && r.digest != a.digest) {
    miss("digest mismatch: got %s want %s", r.digest.c_str(),
         a.digest.c_str());
  }
  if (a.determinism && r.digest != r.digest_rerun) {
    miss("nondeterministic: first %s rerun %s", r.digest.c_str(),
         r.digest_rerun.c_str());
  }
}

std::string Digest::hex() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "fnv1a64:%016" PRIx64, hash_);
  return buf;
}

}  // namespace hni::core
