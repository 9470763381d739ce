#include "sim/telemetry/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace hni::sim {

namespace {

/// Orders a 16-bit label as its decimal string sorts when a '.'
/// follows it ("10." < "9."): the digits scaled to five places, then
/// the digit count, so that a prefix ("1." against "10.") sorts first,
/// as '.' sorts below every digit. The low three bits hold the count;
/// the key is below 2^20.
std::uint64_t decimal_key(std::uint16_t v) {
  std::uint64_t digits = 1;
  for (unsigned x = v; x >= 10; x /= 10) ++digits;
  std::uint64_t scaled = v;
  for (std::uint64_t d = digits; d < 5; ++d) scaled *= 10;
  return scaled << 3 | digits;
}

void append_label(std::string& out, std::uint16_t v) {
  char digits[5];  // a 16-bit value has at most 5
  out.append(digits, std::to_chars(digits, digits + 5, v).ptr);
}

/// Appends a value as the dumps print it: integers without a fraction
/// so counters stay readable, else %.6g (deterministic for identical
/// inputs).
void append_value(std::string& out, double v) {
  char buf[32];
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    out.append(buf, std::to_chars(buf, buf + sizeof buf,
                                  static_cast<std::int64_t>(v)).ptr);
    return;
  }
  const int n = std::snprintf(buf, sizeof buf, "%.6g", v);
  out.append(buf, static_cast<std::size_t>(n));
}

// to_json() bytes a value may take: an int64 is at most 20 characters
// and a %.6g number at most 13; a histogram's object adds its keys.
constexpr std::size_t kValueBytes = 20;
constexpr std::size_t kHistogramBytes =
    sizeof "{\"count\":,\"p50\":,\"p99\":}" + 3 * kValueBytes;

}  // namespace

MetricsRegistry::Entry* MetricsRegistry::find(std::string_view name) {
  const auto at = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [this](std::uint32_t i, std::string_view n) { return entries_[i].name < n; });
  if (at == by_name_.end() || entries_[*at].name != name) return nullptr;
  return &entries_[*at];
}

void MetricsRegistry::add(Entry e) {
  const auto at = std::upper_bound(
      by_name_.begin(), by_name_.end(), e.name,
      [this](const std::string& n, std::uint32_t i) { return n < entries_[i].name; });
  by_name_.insert(at, static_cast<std::uint32_t>(entries_.size()));
  entries_.push_back(std::move(e));
}

Counter& MetricsRegistry::counter(const std::string& name) {
  if (Entry* e = find(name)) {
    // Same-name re-registration returns the original instrument so two
    // components sharing a scope accumulate into one counter.
    return const_cast<Counter&>(*e->counter);
  }
  owned_counters_.emplace_back();
  add({name, MetricKind::kCounter, &owned_counters_.back(), nullptr, {}});
  return owned_counters_.back();
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      double bin_width, std::size_t bins) {
  if (Entry* e = find(name)) {
    return const_cast<Histogram&>(*e->histogram);
  }
  owned_histograms_.emplace_back(bin_width, bins);
  add({name, MetricKind::kHistogram, nullptr, &owned_histograms_.back(), {}});
  return owned_histograms_.back();
}

void MetricsRegistry::expose(const std::string& name, const Counter& c) {
  if (Entry* e = find(name)) {
    e->counter = &c;  // newest registration wins (re-wired component)
    e->kind = MetricKind::kCounter;
    return;
  }
  add({name, MetricKind::kCounter, &c, nullptr, {}});
}

void MetricsRegistry::gauge(const std::string& name,
                            std::function<double()> fn) {
  if (Entry* e = find(name)) {
    e->gauge = std::move(fn);
    e->kind = MetricKind::kGauge;
    return;
  }
  add({name, MetricKind::kGauge, nullptr, nullptr, std::move(fn)});
}

void MetricsRegistry::vc_family(const std::string& scope, VcWalk walk) {
  std::string stem = scope.empty() ? "vc." : scope + ".vc.";
  for (VcFamily& f : families_) {
    if (f.stem == stem) {
      f.walk = std::move(walk);
      return;
    }
  }
  families_.push_back({std::move(stem), std::move(walk)});
}

std::size_t MetricsRegistry::size() const { return entries_.size(); }

void VcRowWriter::begin(std::uint16_t vpi, std::uint16_t vci) {
  const auto at = static_cast<std::uint32_t>(rows_->size());
  groups_->push_back({decimal_key(vpi) << 20 | decimal_key(vci), at, at, vpi,
                      vci});
}

/// One pass over every instrument whose name starts with a prefix, in
/// name order. Construction collects the families' rows; for_each()
/// then merges them with the name-sorted entries, handing each row to
/// its consumer as a View whose name lives until the next row.
class MetricsRegistry::Walk {
 public:
  struct View {
    std::string_view name;
    MetricKind kind;
    double value;  // counter/gauge value; histogram sample count
    const Histogram* histogram;
  };

  Walk(const MetricsRegistry& registry, std::string_view prefix);

  /// Rows the walk visits: an upper bound when a family's rows are
  /// filtered one by one.
  std::size_t rows() const { return rows_count_; }
  /// An upper bound on the bytes to_json() renders.
  std::size_t json_bytes() const { return json_bytes_; }

  template <typename Fn>
  void for_each(Fn&& fn);

 private:
  using Row = VcRowWriter::Row;
  using Group = VcRowWriter::Group;

  /// One family's rows in name order: groups_[group, group_end) in key
  /// order, each group's rows_ in name order.
  struct Cursor {
    std::string_view stem;
    std::size_t group = 0, group_end = 0;
    std::size_t row = 0, row_end = 0;  // the current group's rows
    bool filter = false;               // test each row against prefix_
    std::string name;                  // the head row's full name
    std::size_t vc_len = 0;            // name's "<stem><vpi>.<vci>." part
    std::string last;                  // the family's last name

    /// Whether a head row remains; settle() leaves row == row_end only
    /// once every group is spent.
    bool live() const { return row != row_end; }
  };

  void collect(const VcFamily& f, bool filter);
  void render_vc(std::string& out, const Cursor& c, const Group& g) const;
  /// Renders `c`'s head row, first moving on to the next group with
  /// rows if the current one is spent; false once none is left.
  bool settle(Cursor& c);
  const std::string& entry_name(std::size_t i) const {
    return registry_.entries_[registry_.by_name_[i]].name;
  }
  View entry_view(std::size_t i) const;

  const MetricsRegistry& registry_;
  std::string_view prefix_;
  std::size_t entry_ = 0, entry_end_ = 0;  // by_name_ range under prefix_
  std::vector<Row> rows_;
  std::vector<Group> groups_;
  std::vector<Cursor> cursors_;
  std::size_t rows_count_ = 0;
  std::size_t json_bytes_ = 2;  // the braces
};

MetricsRegistry::Walk::Walk(const MetricsRegistry& registry,
                            std::string_view prefix)
    : registry_(registry), prefix_(prefix) {
  // Names under a prefix are one contiguous run of the name index.
  const auto& index = registry.by_name_;
  const auto lo = std::lower_bound(
      index.begin(), index.end(), prefix,
      [&](std::uint32_t i, std::string_view p) {
        return registry.entries_[i].name < p;
      });
  const auto hi = std::partition_point(lo, index.end(), [&](std::uint32_t i) {
    return registry.entries_[i].name.starts_with(prefix);
  });
  entry_ = static_cast<std::size_t>(lo - index.begin());
  entry_end_ = static_cast<std::size_t>(hi - index.begin());
  rows_count_ = entry_end_ - entry_;
  for (std::size_t i = entry_; i < entry_end_; ++i) {
    const Entry& e = registry.entries_[index[i]];
    json_bytes_ += e.name.size() + 4 +
                   (e.kind == MetricKind::kHistogram ? kHistogramBytes
                                                     : kValueBytes);
  }

  for (const VcFamily& f : registry.families_) {
    // Every row of f starts with its stem, so the stem decides the
    // prefix for all of them unless the prefix reaches past it.
    if (f.stem.starts_with(prefix)) {
      collect(f, false);
    } else if (prefix.starts_with(f.stem)) {
      collect(f, true);
    }
  }
  for (Cursor& c : cursors_) {
    // The last row, rendered once: a family that sorts wholly before
    // the next stream's head runs out without another comparison.
    std::size_t g = c.group_end;
    while (groups_[g - 1].first == groups_[g - 1].end) --g;
    render_vc(c.last, c, groups_[g - 1]);
    c.last.append(rows_[groups_[g - 1].end - 1].name);
    settle(c);
  }
}

void MetricsRegistry::Walk::collect(const VcFamily& f, bool filter) {
  const std::size_t g0 = groups_.size();
  VcRowWriter writer(rows_, groups_);
  f.walk(writer);
  const auto first = groups_.begin() + static_cast<std::ptrdiff_t>(g0);
  const auto by_name = [](const Row& a, const Row& b) { return a.name < b.name; };
  const auto rows_of = [this](const Group& g) {
    return std::pair(rows_.begin() + g.first, rows_.begin() + g.end);
  };
  for (auto g = first; g != groups_.end(); ++g) {
    const auto [b, e] = rows_of(*g);
    if (!std::is_sorted(b, e, by_name)) std::sort(b, e, by_name);
  }
  const auto by_key = [](const Group& a, const Group& b) {
    return a.key < b.key;
  };
  if (!std::is_sorted(first, groups_.end(), by_key)) {
    std::sort(first, groups_.end(), by_key);
  }
  // A VC visited twice: its groups' rows become one sorted run.
  for (auto g = first; g != groups_.end();) {
    auto run = g + 1;
    while (run != groups_.end() && !by_key(*g, *run)) ++run;
    if (run - g > 1) {
      const auto at = static_cast<std::uint32_t>(rows_.size());
      for (auto d = g; d != run; ++d) {
        for (std::uint32_t i = d->first; i < d->end; ++i) {
          rows_.push_back(rows_[i]);
        }
        d->first = d->end = 0;
      }
      g->first = at;
      g->end = static_cast<std::uint32_t>(rows_.size());
      const auto [b, e] = rows_of(*g);
      std::sort(b, e, by_name);
    }
    g = run;
  }

  std::size_t rows = 0;
  for (auto g = first; g != groups_.end(); ++g) {
    const std::size_t n = g->end - g->first;
    rows += n;
    // "<vpi>.<vci>." takes the two labels' digit counts plus two dots.
    const std::size_t vc_len = (g->key >> 20 & 7) + (g->key & 7) + 2;
    json_bytes_ += n * (f.stem.size() + vc_len + 4 + kValueBytes);
    for (std::uint32_t i = g->first; i < g->end; ++i) {
      json_bytes_ += rows_[i].name.size();
    }
  }
  if (rows == 0) return;
  rows_count_ += rows;
  Cursor& c = cursors_.emplace_back();
  c.stem = f.stem;
  c.group = g0;
  c.group_end = groups_.size();
  c.filter = filter;
}

void MetricsRegistry::Walk::render_vc(std::string& out, const Cursor& c,
                                      const Group& g) const {
  out.assign(c.stem);
  append_label(out, g.vpi);
  out += '.';
  append_label(out, g.vci);
  out += '.';
}

bool MetricsRegistry::Walk::settle(Cursor& c) {
  while (c.row == c.row_end) {
    if (c.group == c.group_end) return false;
    const Group& g = groups_[c.group++];
    c.row = g.first;
    c.row_end = g.end;
    if (c.row != c.row_end) {
      render_vc(c.name, c, g);
      c.vc_len = c.name.size();
    }
  }
  c.name.resize(c.vc_len);
  c.name.append(rows_[c.row].name);
  return true;
}

MetricsRegistry::Walk::View MetricsRegistry::Walk::entry_view(
    std::size_t i) const {
  const Entry& e = registry_.entries_[registry_.by_name_[i]];
  switch (e.kind) {
    case MetricKind::kCounter:
      return {e.name, e.kind, static_cast<double>(e.counter->value()),
              nullptr};
    case MetricKind::kGauge:
      return {e.name, e.kind, e.gauge ? e.gauge() : 0.0, nullptr};
    case MetricKind::kHistogram:
      break;
  }
  return {e.name, e.kind, static_cast<double>(e.histogram->count()),
          e.histogram};
}

template <typename Fn>
void MetricsRegistry::Walk::for_each(Fn&& fn) {
  for (;;) {
    // The stream whose head sorts first (named entries win ties), and
    // the lowest head of the others: the first stream runs up to it.
    Cursor* best = nullptr;
    bool found = entry_ < entry_end_;
    std::string_view head =
        found ? std::string_view(entry_name(entry_)) : std::string_view{};
    for (Cursor& c : cursors_) {
      if (c.live() && (!found || c.name < head)) {
        best = &c;
        head = c.name;
        found = true;
      }
    }
    if (!found) return;
    std::string_view bound;
    bool bounded = false;
    const auto consider = [&](std::string_view other) {
      if (!bounded || other < bound) bound = other;
      bounded = true;
    };
    if (best != nullptr && entry_ < entry_end_) consider(entry_name(entry_));
    for (const Cursor& c : cursors_) {
      if (c.live() && &c != best) consider(c.name);
    }

    if (best == nullptr) {
      do {
        fn(entry_view(entry_++));
      } while (entry_ < entry_end_ &&
               !(bounded && bound < entry_name(entry_)));
      continue;
    }
    Cursor& c = *best;
    const bool whole = !bounded || c.last < bound;
    for (;;) {
      if (!c.filter || c.name.starts_with(prefix_)) {
        fn(View{c.name, MetricKind::kCounter, rows_[c.row].value, nullptr});
      }
      ++c.row;
      if (!settle(c) || (!whole && !(c.name < bound))) break;
    }
  }
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  Walk walk(*this, {});
  std::vector<Sample> out;
  out.reserve(walk.rows());
  walk.for_each([&out](const Walk::View& v) {
    out.push_back({std::string(v.name), v.kind, v.value, v.histogram});
  });
  return out;
}

std::string MetricsRegistry::to_json(const std::string& prefix) const {
  Walk walk(*this, prefix);
  std::string out;
  out.reserve(walk.json_bytes());
  out += '{';
  walk.for_each([&out](const Walk::View& v) {
    if (out.size() > 1) out += ',';
    out += '"';
    out.append(v.name);
    out += "\":";
    if (v.kind != MetricKind::kHistogram) {
      append_value(out, v.value);
      return;
    }
    out += "{\"count\":";
    append_value(out, v.value);
    out += ",\"p50\":";
    append_value(out, v.histogram->percentile(50));
    out += ",\"p99\":";
    append_value(out, v.histogram->percentile(99));
    out += '}';
  });
  out += '}';
  return out;
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
