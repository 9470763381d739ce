#include "sim/telemetry/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <iterator>

namespace hni::sim {

MetricsRegistry::Entry* MetricsRegistry::find(const std::string& name) {
  for (Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  if (Entry* e = find(name)) {
    // Same-name re-registration returns the original instrument so two
    // components sharing a scope accumulate into one counter.
    return const_cast<Counter&>(*e->counter);
  }
  owned_counters_.emplace_back();
  entries_.push_back(
      {name, MetricKind::kCounter, &owned_counters_.back(), nullptr, {}});
  return owned_counters_.back();
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      double bin_width, std::size_t bins) {
  if (Entry* e = find(name)) {
    return const_cast<Histogram&>(*e->histogram);
  }
  owned_histograms_.emplace_back(bin_width, bins);
  entries_.push_back({name, MetricKind::kHistogram, nullptr,
                      &owned_histograms_.back(), {}});
  return owned_histograms_.back();
}

void MetricsRegistry::expose(const std::string& name, const Counter& c) {
  if (Entry* e = find(name)) {
    e->counter = &c;  // newest registration wins (re-wired component)
    e->kind = MetricKind::kCounter;
    return;
  }
  entries_.push_back({name, MetricKind::kCounter, &c, nullptr, {}});
}

void MetricsRegistry::gauge(const std::string& name,
                            std::function<double()> fn) {
  if (Entry* e = find(name)) {
    e->gauge = std::move(fn);
    e->kind = MetricKind::kGauge;
    return;
  }
  entries_.push_back({name, MetricKind::kGauge, nullptr, nullptr,
                      std::move(fn)});
}

void MetricsRegistry::family(const std::string& key, Family emit) {
  for (auto& [k, f] : families_) {
    if (k == key) {
      f = std::move(emit);
      return;
    }
  }
  families_.emplace_back(key, std::move(emit));
}

std::size_t MetricsRegistry::size() const { return entries_.size(); }

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  const auto by_name = [](const Sample& a, const Sample& b) {
    return a.name < b.name;
  };
  // Family rows first, so the output is sized once. A block that
  // arrives in name order (VcRowWriter's do) skips its sort.
  std::vector<Sample> rows;
  std::vector<std::size_t> starts;
  for (const auto& [key, emit] : families_) {
    starts.push_back(rows.size());
    emit(rows);
    const auto block =
        rows.begin() + static_cast<std::ptrdiff_t>(starts.back());
    if (!std::is_sorted(block, rows.end(), by_name)) {
      std::sort(block, rows.end(), by_name);
    }
  }
  starts.push_back(rows.size());

  std::vector<Sample> out;
  out.reserve(entries_.size() + rows.size());
  for (const Entry& e : entries_) {
    Sample s;
    s.name = e.name;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(e.counter->value());
        break;
      case MetricKind::kGauge:
        s.value = e.gauge ? e.gauge() : 0.0;
        break;
      case MetricKind::kHistogram:
        s.value = static_cast<double>(e.histogram->count());
        s.histogram = e.histogram;
        break;
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), by_name);

  // A family's rows share one prefix (a vc_family's "<scope>.vc."), so
  // its sorted block belongs at one position; the whole output is
  // re-sorted only if some other name falls inside a block's range.
  bool in_order = true;
  for (std::size_t f = 0; f + 1 < starts.size(); ++f) {
    const auto first = rows.begin() + static_cast<std::ptrdiff_t>(starts[f]);
    const auto last = rows.begin() + static_cast<std::ptrdiff_t>(starts[f + 1]);
    if (first == last) continue;
    const auto at = std::upper_bound(out.begin(), out.end(), *first, by_name);
    const auto after = out.insert(at, std::make_move_iterator(first),
                                  std::make_move_iterator(last)) +
                       (last - first);
    if (after != out.end() && by_name(*after, *(after - 1))) in_order = false;
  }
  if (!in_order) std::sort(out.begin(), out.end(), by_name);
  return out;
}

namespace {

std::string format_value(double v) {
  // Integers print without a fraction so counters stay readable; the
  // %.6g fallback is deterministic for identical inputs.
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::to_json(const std::string& prefix) const {
  std::string out = "{";
  bool first = true;
  for (const Sample& s : snapshot()) {
    if (!prefix.empty() && s.name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    if (!first) out += ",";
    first = false;
    out += '"';
    out += s.name;
    out += "\":";
    if (s.kind == MetricKind::kHistogram) {
      out += "{\"count\":" + format_value(s.value) +
             ",\"p50\":" + format_value(s.histogram->percentile(50)) +
             ",\"p99\":" + format_value(s.histogram->percentile(99)) + "}";
    } else {
      out += format_value(s.value);
    }
  }
  out += "}";
  return out;
}

VcRowWriter::VcRowWriter(const std::string& scope,
                         std::vector<MetricsRegistry::Sample>& out)
    : out_(&out),
      base_(out.size()),
      prefix_(scope.empty() ? "vc." : scope + ".vc."),
      scope_len_(prefix_.size()) {}

void VcRowWriter::begin(std::uint32_t vpi, std::uint32_t vci) {
  if (!groups_.empty()) groups_.back().end = out_->size();
  groups_.push_back({vpi, vci, out_->size(), 0});
  char digits[10];  // a 32-bit value has at most 10
  prefix_.resize(scope_len_);
  prefix_.append(digits, std::to_chars(digits, digits + 10, vpi).ptr);
  prefix_ += '.';
  prefix_.append(digits, std::to_chars(digits, digits + 10, vci).ptr);
  prefix_ += '.';
}

void VcRowWriter::counter(std::string_view name, const Counter& c) {
  MetricsRegistry::Sample s;
  s.name.reserve(prefix_.size() + name.size());
  s.name.append(prefix_).append(name);
  s.value = static_cast<double>(c.value());
  out_->push_back(std::move(s));
}

namespace {

std::uint32_t decimal_digits(std::uint32_t v) {
  std::uint32_t d = 1;
  while (v >= 10) {
    v /= 10;
    ++d;
  }
  return d;
}

/// Whether a's decimal string sorts before b's ("10" < "9"): scale the
/// shorter to the longer's length; on a tie the shorter is a prefix.
/// A prefix sorts first in the rendered names too, because the '.'
/// that follows it is below every digit.
bool decimal_less(std::uint32_t a, std::uint32_t b) {
  const std::uint32_t da = decimal_digits(a);
  const std::uint32_t db = decimal_digits(b);
  std::uint64_t x = a;
  std::uint64_t y = b;
  for (std::uint32_t i = da; i < db; ++i) x *= 10;
  for (std::uint32_t i = db; i < da; ++i) y *= 10;
  return x != y ? x < y : da < db;
}

}  // namespace

void VcRowWriter::finish() {
  const auto vc_less = [](const Group& a, const Group& b) {
    if (a.vpi != b.vpi) return decimal_less(a.vpi, b.vpi);
    return decimal_less(a.vci, b.vci);
  };
  if (groups_.empty()) return;
  groups_.back().end = out_->size();
  if (std::is_sorted(groups_.begin(), groups_.end(), vc_less)) return;
  std::sort(groups_.begin(), groups_.end(), vc_less);
  std::vector<MetricsRegistry::Sample> rows;
  rows.reserve(out_->size() - base_);
  for (const Group& g : groups_) {
    for (std::size_t i = g.first; i < g.end; ++i) {
      rows.push_back(std::move((*out_)[i]));
    }
  }
  std::move(rows.begin(), rows.end(),
            out_->begin() + static_cast<std::ptrdiff_t>(base_));
}

void MetricScope::vc_family(std::function<void(VcRowWriter&)> walk) const {
  registry_->family(join("vc"), [prefix = prefix_, walk = std::move(walk)](
                                    std::vector<MetricsRegistry::Sample>& out) {
    VcRowWriter rows(prefix, out);
    walk(rows);
    rows.finish();
  });
}

void MetricScope::expose_stat(const std::string& name,
                              const RunningStat& s) const {
  const RunningStat* stat = &s;
  gauge(name + ".count",
        [stat] { return static_cast<double>(stat->count()); });
  gauge(name + ".mean", [stat] { return stat->mean(); });
  gauge(name + ".max", [stat] { return stat->max(); });
}

}  // namespace hni::sim
