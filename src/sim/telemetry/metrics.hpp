// Metrics registry: named, hierarchically-scoped instruments.
//
// Components stop hand-rolling `sim::Counter` member soup for export:
// they register their instruments (or expose existing members) under a
// dotted scope — "station.0.alice.nic.rx.fifo.drops" — and anything
// holding the registry can enumerate every instrument in the system,
// dump it as an aligned table (core::report) or as JSON.
//
// Three instrument kinds:
//   * counters   — registry-owned (counter()) or externally-owned
//                  members surfaced by reference (expose());
//   * gauges     — a callback sampled at snapshot time (utilization,
//                  queue depth, any derived value);
//   * histograms — registry-owned, for latency-style distributions.
//
// Per-VC metrics are a row family, not registered entries: a path
// keeps each VC's counters inline in its own per-VC state and registers
// one family (MetricScope::vc_family). At snapshot time the family
// walks the path's live VC table and renders
// "<scope>.vc.<vpi>.<vci>.<name>" rows, which sort in with the named
// entries. Opening a VC therefore does no string work and adds no
// registry entry, and a VC whose state is gone (closed) has no rows.
//
// Hot-path cost: incrementing a registered counter is identical to an
// unregistered one (Counter::add — no allocation, no lookup). All
// string work happens at registration and snapshot time only.
// Snapshots are sorted by name, so two identical runs dump
// byte-identical output — the determinism tests rely on this.
//
// snapshot() and to_json() consume one name-ordered walk. Named entries
// sit in a name-sorted index from registration on; a family's rows are
// collected as {name view, value} with one integer-keyed group per VC
// and sorted by those keys; the walk merges the streams, comparing
// names only where one stream hands over to another. to_json() appends
// straight into one pre-sized string, so rendering allocates a bounded
// number of blocks however many VCs are open.
//
// Lifetime: expose(), gauge() and vc_family() hold references into the
// registering component; the registry must not be snapshotted after a
// registered component dies. core::Testbed owns the registry alongside
// its stations and links, which satisfies this by construction.

#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/stats.hpp"

namespace hni::sim {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

class VcRowWriter;

class MetricsRegistry {
 public:
  /// One enumerated instrument at snapshot time.
  struct Sample {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    double value = 0.0;  // counter/gauge value; histogram sample count
    const Histogram* histogram = nullptr;  // set when kind == kHistogram
  };

  /// Registry-owned counter; repeated calls with the same name return
  /// the same instrument.
  Counter& counter(const std::string& name);

  /// Registry-owned histogram; repeated calls with the same name return
  /// the same instrument (bin parameters of the first call win).
  Histogram& histogram(const std::string& name, double bin_width,
                       std::size_t bins);

  /// Surfaces an externally-owned counter (a component member) under
  /// `name`. The component must outlive every snapshot.
  void expose(const std::string& name, const Counter& c);

  /// Registers a callback gauge, sampled at snapshot time.
  void gauge(const std::string& name, std::function<double()> fn);

  /// Registers the per-VC row family of `scope`: at snapshot time
  /// `walk` visits the live VCs, calling VcRowWriter::begin per VC and
  /// VcRowWriter::counter per instrument, and the rows render as
  /// "<scope>.vc.<vpi>.<vci>.<name>". Re-registering a scope replaces
  /// its family (newest wins, as with expose()). Family rows are not
  /// entries: size() does not count them.
  using VcWalk = std::function<void(VcRowWriter&)>;
  void vc_family(const std::string& scope, VcWalk walk);

  /// Every instrument, sorted by name (deterministic dump order).
  std::vector<Sample> snapshot() const;

  /// Compact JSON object {"name": value, ...} in snapshot order, of the
  /// instruments whose names start with `prefix`. Histograms render as
  /// {"count":n,"p50":x,"p99":y}.
  std::string to_json(const std::string& prefix = "") const;

  /// Registered entries (counters, gauges, histograms). Family rows
  /// are rendered at snapshot time and not counted.
  std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    const Counter* counter = nullptr;      // owned or exposed
    const Histogram* histogram = nullptr;  // owned
    std::function<double()> gauge;
  };
  struct VcFamily {
    std::string stem;  // "<scope>.vc."
    VcWalk walk;
  };
  class Walk;  // the name-ordered walk behind snapshot() and to_json()

  /// The entry named `name`, by binary search of the name index.
  Entry* find(std::string_view name);
  /// Adds a new entry and slots it into the name index.
  void add(Entry e);

  // Deques: stable addresses across registration.
  std::deque<Counter> owned_counters_;
  std::deque<Histogram> owned_histograms_;
  std::vector<Entry> entries_;            // registration order
  std::vector<std::uint32_t> by_name_;    // entries_ indices, name order
  std::vector<VcFamily> families_;
};

/// Collects the rows of one VC family during a snapshot. Each row is a
/// view of its name and the counter's value, so collecting allocates
/// nothing per row; the registry renders the full names as it walks.
/// VCs may be visited in any order: each begin() gives its VC one
/// integer key in the decimal order of its labels, and the registry
/// sorts the VCs by key. A VC's rows are sorted only if they arrive out
/// of name order.
class VcRowWriter {
 public:
  /// Starts the rows of one VC; every counter() call belongs to the
  /// VC of the last begin(). Labels are 16-bit, as in atm::VcId.
  void begin(std::uint16_t vpi, std::uint16_t vci);
  /// Adds the row "<current VC prefix><name>" with the counter's value.
  /// `name` is viewed, not copied: it must outlive the snapshot (the
  /// walks pass string literals).
  void counter(std::string_view name, const Counter& c) {
    assert(groups_->size() > first_group_ && "counter() before begin()");
    rows_->push_back({name, static_cast<double>(c.value())});
    groups_->back().end = static_cast<std::uint32_t>(rows_->size());
  }

 private:
  friend class MetricsRegistry;

  struct Row {
    std::string_view name;
    double value;
  };
  struct Group {
    std::uint64_t key;         // "<vpi>.<vci>." in name order
    std::uint32_t first, end;  // the VC's rows in rows_
    std::uint16_t vpi, vci;
  };

  VcRowWriter(std::vector<Row>& rows, std::vector<Group>& groups)
      : rows_(&rows), groups_(&groups), first_group_(groups.size()) {}

  std::vector<Row>* rows_;
  std::vector<Group>* groups_;
  std::size_t first_group_;  // groups_->size() at construction
};

/// A dotted-prefix view of a registry: Scope("nic.rx").counter("drops")
/// registers "nic.rx.drops". Cheap to copy; sub() descends a level.
class MetricScope {
 public:
  MetricScope(MetricsRegistry& registry, std::string prefix)
      : registry_(&registry), prefix_(std::move(prefix)) {}

  MetricScope sub(const std::string& name) const {
    return MetricScope(*registry_, join(name));
  }
  /// Per-VC scope: "<prefix>.vc.<vpi>.<vci>".
  MetricScope vc(std::uint32_t vpi, std::uint32_t vci) const {
    return sub("vc." + std::to_string(vpi) + "." + std::to_string(vci));
  }

  Counter& counter(const std::string& name) const {
    return registry_->counter(join(name));
  }
  Histogram& histogram(const std::string& name, double bin_width,
                       std::size_t bins) const {
    return registry_->histogram(join(name), bin_width, bins);
  }
  void expose(const std::string& name, const Counter& c) const {
    registry_->expose(join(name), c);
  }
  void gauge(const std::string& name, std::function<double()> fn) const {
    registry_->gauge(join(name), std::move(fn));
  }
  /// Surfaces a RunningStat as .count/.mean/.max gauges.
  void expose_stat(const std::string& name, const RunningStat& s) const;

  /// Registers the per-VC row family of this scope; rows render as
  /// "<prefix>.vc.<vpi>.<vci>.<name>", the names vc() would build.
  void vc_family(MetricsRegistry::VcWalk walk) const {
    registry_->vc_family(prefix_, std::move(walk));
  }

  const std::string& prefix() const { return prefix_; }
  MetricsRegistry& registry() const { return *registry_; }

 private:
  std::string join(const std::string& name) const {
    return prefix_.empty() ? name : prefix_ + "." + name;
  }

  MetricsRegistry* registry_;
  std::string prefix_;
};

}  // namespace hni::sim
