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
// Lifetime: expose(), gauge() and family() hold references into the
// registering component; the registry must not be snapshotted after a
// registered component dies. core::Testbed owns the registry alongside
// its stations and links, which satisfies this by construction.

#pragma once

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

  /// A row family: at snapshot time `emit` appends any number of rows
  /// to the snapshot (in any order; snapshot() sorts). Families are
  /// keyed by `key`; re-registering a key replaces the family (newest
  /// wins, as with expose()). Family rows are not entries: size()
  /// does not count them.
  using Family = std::function<void(std::vector<Sample>& out)>;
  void family(const std::string& key, Family emit);

  /// Every instrument, sorted by name (deterministic dump order).
  std::vector<Sample> snapshot() const;

  /// Compact JSON object {"name": value, ...} in snapshot order.
  /// Histograms render as {"count":n,"p50":x,"p99":y}.
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

  Entry* find(const std::string& name);

  // Deques: stable addresses across registration.
  std::deque<Counter> owned_counters_;
  std::deque<Histogram> owned_histograms_;
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, Family>> families_;
};

/// Renders per-VC counter rows "<scope>.vc.<vpi>.<vci>.<name>" into a
/// snapshot. begin() builds a VC's prefix once into a reused buffer, so
/// each row costs one allocation (its name). VCs may be visited in any
/// order; finish() reorders the block by name, using the numbers rather
/// than the strings, so the snapshot inserts it whole instead of
/// sorting it.
class VcRowWriter {
 public:
  VcRowWriter(const std::string& scope,
              std::vector<MetricsRegistry::Sample>& out);

  /// Starts the rows of one VC. Its counter() calls should come in
  /// name order.
  void begin(std::uint32_t vpi, std::uint32_t vci);
  /// Appends "<current VC prefix><name>" with the counter's value.
  void counter(std::string_view name, const Counter& c);
  /// Puts the rows in name order; called once, after the last row.
  void finish();

 private:
  struct Group {
    std::uint32_t vpi, vci;
    std::size_t first, end;  // the VC's rows in *out_
  };

  std::vector<MetricsRegistry::Sample>* out_;
  std::size_t base_;        // out_->size() at construction
  std::string prefix_;      // "<scope>.vc.<vpi>.<vci>."
  std::size_t scope_len_;   // length of "<scope>.vc."
  std::vector<Group> groups_;
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

  /// Registers the per-VC row family of this scope: at snapshot time
  /// `walk` visits the live VCs, calling VcRowWriter::begin per VC and
  /// VcRowWriter::counter per instrument. Rows render as
  /// "<prefix>.vc.<vpi>.<vci>.<name>", the names vc() would build.
  void vc_family(std::function<void(VcRowWriter&)> walk) const;

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
