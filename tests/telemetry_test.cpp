// Telemetry subsystem tests: metrics registry, cycle-budget profiler,
// typed tracing, and the stats primitives they surface.
//
// The headline guarantee is cost: the tracing/metrics hot path must be
// allocation-free (the paper's engines have a per-cell cycle budget; an
// observability layer that mallocs per cell would distort exactly what
// it measures). The test binary replaces global operator new to count
// allocations and asserts a zero delta across the hot paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <iterator>
#include <new>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "core/report.hpp"
#include "core/testbed.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry/metrics.hpp"
#include "sim/telemetry/profiler.hpp"
#include "sim/trace.hpp"

// --- Global allocation counter -------------------------------------
//
// Replaces the default operator new/delete for this binary. The tests
// are single-threaded, so a plain counter suffices.

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

// GCC 12 sees these hooks' free() inlined against a new-expression and
// warns of a mismatch; the replaced operator new allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hni {
namespace {

const atm::VcId kVc{0, 31};

// --- Zero-allocation guarantees ------------------------------------

TEST(ZeroAlloc, DisabledTracerEmitAllocatesNothing) {
  sim::Tracer tracer;
  const std::uint16_t src = tracer.intern("hot");
  ASSERT_FALSE(tracer.enabled());

  const std::uint64_t before = g_allocations;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    tracer.emit({static_cast<sim::Time>(i), sim::TraceEventId::kUser, src,
                 1, 2, i});
  }
  EXPECT_EQ(g_allocations - before, 0u);
}

TEST(ZeroAlloc, RingSinkEmitAllocatesNothing) {
  sim::Tracer tracer;
  const std::uint16_t src = tracer.intern("hot");
  sim::TraceRing& ring = tracer.ring(1024);  // preallocates here

  const std::uint64_t before = g_allocations;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    tracer.emit({static_cast<sim::Time>(i), sim::TraceEventId::kUser, src,
                 1, 2, i});
  }
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(ring.total(), 100000u);
  EXPECT_EQ(ring.size(), 1024u);
}

TEST(ZeroAlloc, CounterAndProfilerHotPathsAllocateNothing) {
  sim::MetricsRegistry registry;
  sim::Counter& counter = registry.counter("hot.counter");
  sim::CycleProfiler profiler(25e6);
  const sim::CycleProfiler::PhaseId ph = profiler.phase("hot phase");

  const std::uint64_t before = g_allocations;
  for (int i = 0; i < 100000; ++i) {
    counter.add();
    profiler.add(ph, 40000 /* 40 ns */);
  }
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(counter.value(), 100000u);
  EXPECT_EQ(profiler.stats()[0].items, 100000u);
}

// --- MetricsRegistry -----------------------------------------------

TEST(MetricsRegistry, CounterDeduplicatesByName) {
  sim::MetricsRegistry registry;
  sim::Counter& a = registry.counter("nic.tx.cells");
  sim::Counter& b = registry.counter("nic.tx.cells");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.size(), 1u);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsRegistry, ExposeReflectsExternalCounter) {
  sim::MetricsRegistry registry;
  sim::Counter member;
  registry.expose("fifo.drops", member);
  member.add(7);  // after registration — snapshot must see it
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "fifo.drops");
  EXPECT_EQ(snap[0].kind, sim::MetricKind::kCounter);
  EXPECT_EQ(snap[0].value, 7.0);
}

TEST(MetricsRegistry, GaugeSampledAtSnapshotTime) {
  sim::MetricsRegistry registry;
  double depth = 1.0;
  registry.gauge("fifo.depth", [&depth] { return depth; });
  EXPECT_EQ(registry.snapshot()[0].value, 1.0);
  depth = 9.0;
  EXPECT_EQ(registry.snapshot()[0].value, 9.0);
}

TEST(MetricsRegistry, SnapshotSortedByName) {
  sim::MetricsRegistry registry;
  registry.counter("zeta");
  registry.counter("alpha");
  registry.gauge("mid", [] { return 0.0; });
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_EQ(snap[1].name, "mid");
  EXPECT_EQ(snap[2].name, "zeta");
}

TEST(MetricsRegistry, HistogramSampleCarriesDistribution) {
  sim::MetricsRegistry registry;
  sim::Histogram& h = registry.histogram("latency", 1.0, 16);
  h.add(2.5);
  h.add(3.5);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].kind, sim::MetricKind::kHistogram);
  EXPECT_EQ(snap[0].value, 2.0);  // sample count
  ASSERT_NE(snap[0].histogram, nullptr);
  EXPECT_EQ(snap[0].histogram->count(), 2u);
}

TEST(MetricScope, PrefixesComposeThroughSubAndVc) {
  sim::MetricsRegistry registry;
  const sim::MetricScope root(registry, "station.0");
  root.sub("nic.rx").counter("cells");
  root.sub("nic.rx").vc(0, 31).counter("pdus");
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "station.0.nic.rx.cells");
  EXPECT_EQ(snap[1].name, "station.0.nic.rx.vc.0.31.pdus");
}

TEST(MetricScope, ExposeStatSurfacesCountMeanMax) {
  sim::MetricsRegistry registry;
  sim::RunningStat stat;
  sim::MetricScope(registry, "rx").expose_stat("pdu_latency_us", stat);
  stat.add(10.0);
  stat.add(30.0);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "rx.pdu_latency_us.count");
  EXPECT_EQ(snap[0].value, 2.0);
  EXPECT_EQ(snap[1].name, "rx.pdu_latency_us.max");
  EXPECT_EQ(snap[1].value, 30.0);
  EXPECT_EQ(snap[2].name, "rx.pdu_latency_us.mean");
  EXPECT_EQ(snap[2].value, 20.0);
}

// One end-to-end scenario, metrics dumped as JSON. Two identical runs
// must dump byte-identical text (sorted snapshot + deterministic
// simulator); this is what lets benches diff telemetry across runs.
std::string run_scenario_json() {
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b);
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);
  for (int i = 0; i < 4; ++i) {
    a.host().send(kVc, aal::AalType::kAal5,
                  aal::make_pattern(1000 + 100 * i, i + 1));
  }
  bed.run_for(sim::milliseconds(10));
  return bed.metrics().to_json();
}

TEST(MetricsRegistry, JsonDumpByteIdenticalAcrossIdenticalRuns) {
  const std::string first = run_scenario_json();
  const std::string second = run_scenario_json();
  EXPECT_EQ(first, second);
  // The tree covers the whole system, per-VC labels included.
  EXPECT_NE(first.find("\"station.0.station.nic.tx.pdus_sent\":4"),
            std::string::npos)
      << first;
  EXPECT_NE(first.find(".nic.tx.vc.0.31.cells\""), std::string::npos);
  EXPECT_NE(first.find(".nic.rx.vc.0.31.pdus\""), std::string::npos);
  EXPECT_NE(first.find("\"link.0.cells_in\""), std::string::npos);
}

// --- Per-VC row family -----------------------------------------------
//
// Per-VC counters live in the paths' VC tables; one family per path
// renders them at snapshot time. Registry size does not grow with VCs,
// and a VC's rows exist exactly while its state does.

/// The snapshot value of `name`, or nullopt when no row has that name.
std::optional<double> row(const sim::MetricsRegistry& registry,
                          const std::string& name) {
  for (const auto& s : registry.snapshot()) {
    if (s.name == name) return s.value;
  }
  return std::nullopt;
}

atm::VcId nth_vc(std::size_t i) {
  return atm::VcId{static_cast<std::uint16_t>(i >> 12),
                   static_cast<std::uint16_t>(32 + (i & 0xFFF))};
}

std::size_t registry_size_with_vcs(std::size_t n) {
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b);
  for (std::size_t i = 0; i < n; ++i) {
    a.nic().open_vc(nth_vc(i), aal::AalType::kAal5);
    b.nic().open_vc(nth_vc(i), aal::AalType::kAal5);
    a.nic().tx().clear_shaper(nth_vc(i));  // creates the TX VC state
  }
  a.host().send(nth_vc(n - 1), aal::AalType::kAal5, aal::make_pattern(100, 1));
  bed.run_for(sim::milliseconds(1));
  EXPECT_EQ(b.nic().rx().pdus_delivered(), 1u);
  // Every VC renders its rows: 2 TX rows on a, 3 RX rows on each side.
  std::size_t vc_rows = 0;
  for (const auto& s : bed.metrics().snapshot()) {
    if (s.name.find(".vc.") != std::string::npos) ++vc_rows;
  }
  EXPECT_EQ(vc_rows, n * (2 + 3 + 3));
  return bed.metrics().size();
}

TEST(VcFamily, RegistrySizeIndependentOfOpenVcs) {
  EXPECT_EQ(registry_size_with_vcs(16), registry_size_with_vcs(4096));
}

TEST(VcFamily, RowsCoverVcsOpenedBeforeAndAfterRegistration) {
  sim::Simulator sim;
  core::Station st(sim, core::StationConfig{});
  const atm::VcId before{0, 40};
  const atm::VcId after{1, 41};
  st.nic().open_vc(before, aal::AalType::kAal5);
  st.nic().tx().clear_shaper(before);
  sim::MetricsRegistry registry;
  st.register_metrics(sim::MetricScope(registry, "st"));
  st.nic().open_vc(after, aal::AalType::kAal5);
  st.nic().tx().clear_shaper(after);
  const std::string json = registry.to_json();
  for (const char* name :
       {"\"st.nic.rx.vc.0.40.pdus\":0", "\"st.nic.rx.vc.1.41.pdus\":0",
        "\"st.nic.rx.vc.0.40.cells_efci_marked\":0",
        "\"st.nic.tx.vc.0.40.cells\":0", "\"st.nic.tx.vc.1.41.cells\":0"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name << "\n" << json;
  }
}

TEST(VcFamily, RowsSortWithNamedEntriesByName) {
  // Labels whose decimal order differs from their numeric order, rows
  // of one VC written out of name order, and a named entry that sorts
  // between two VCs' rows.
  sim::MetricsRegistry registry;
  const sim::MetricScope scope(registry, "p");
  std::vector<std::pair<atm::VcId, sim::Counter>> vcs;
  for (const atm::VcId vc : {atm::VcId{0, 100}, atm::VcId{0, 9},
                             atm::VcId{2, 1}, atm::VcId{10, 5},
                             atm::VcId{0, 10}, atm::VcId{1, 0}}) {
    vcs.push_back({vc, sim::Counter{}});
  }
  const auto walk = [&vcs](sim::VcRowWriter& rows) {
    for (const auto& [vc, c] : vcs) {
      rows.begin(vc.vpi, vc.vci);
      rows.counter("pdus", c);
      rows.counter("cells", c);
    }
  };
  scope.vc_family(walk);
  scope.vc_family(walk);  // re-registration replaces, never duplicates
  scope.sub("vc.0.50").counter("named");
  registry.counter("a");
  registry.counter("z");
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 2 * vcs.size() + 3);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name) << i;
  }
  EXPECT_EQ(registry.size(), 3u);
}

TEST(VcFamily, ClosedVcRowsLeaveAndReopenedVcCountsFromZero) {
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b);
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);
  for (int i = 0; i < 2; ++i) {
    a.host().send(kVc, aal::AalType::kAal5, aal::make_pattern(100, i + 1));
  }
  bed.run_for(sim::milliseconds(1));
  const std::string rx_pdus = "station.1.station.nic.rx.vc.0.31.pdus";
  EXPECT_EQ(row(bed.metrics(), rx_pdus), 2.0);

  b.nic().close_vc(kVc);
  for (const auto& s : bed.metrics().snapshot()) {
    EXPECT_EQ(s.name.find("station.1.station.nic.rx.vc."), std::string::npos)
        << s.name;
  }

  b.nic().open_vc(kVc, aal::AalType::kAal5);
  EXPECT_EQ(row(bed.metrics(), rx_pdus), 0.0);
  a.host().send(kVc, aal::AalType::kAal5, aal::make_pattern(100, 3));
  bed.run_for(sim::milliseconds(1));
  EXPECT_EQ(row(bed.metrics(), rx_pdus), 1.0);
  EXPECT_EQ(b.nic().rx().pdus_delivered(), 3u);
}

TEST(VcFamily, CloseDuringLandingDmaCountsNothingForTheClosedVc) {
  core::Testbed bed;
  auto& a = bed.add_station({});
  auto& b = bed.add_station({});
  bed.connect(a, b);
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);
  // Hold b's landing DMA so the PDU is reassembled but not yet landed
  // when the VC closes.
  b.nic().rx().dma().stall(sim::milliseconds(2));
  a.host().send(kVc, aal::AalType::kAal5, aal::make_pattern(100, 1));
  bed.run_for(sim::milliseconds(1));
  ASSERT_EQ(b.nic().rx().cells_serviced(), 3u);
  ASSERT_EQ(b.nic().rx().pdus_delivered(), 0u);
  b.nic().close_vc(kVc);

  bed.run_for(sim::milliseconds(3));
  // The transfer finishes into host memory and the path's own books
  // count it; the closed VC has no rows to count it in.
  EXPECT_EQ(b.nic().rx().pdus_delivered(), 1u);
  for (const auto& s : bed.metrics().snapshot()) {
    EXPECT_EQ(s.name.find("station.1.station.nic.rx.vc."), std::string::npos)
        << s.name;
  }
  b.nic().open_vc(kVc, aal::AalType::kAal5);
  EXPECT_EQ(row(bed.metrics(), "station.1.station.nic.rx.vc.0.31.pdus"), 0.0);
}

// --- The ordered walk -------------------------------------------------
//
// snapshot() and to_json() share one name-ordered merge of the sorted
// entries and each family's rows. The reference below is the naive
// renderer: every row materialized as a Sample with its full name, all
// rows sorted by name with std::sort, then printed.

std::string reference_value(double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string reference_json(const std::vector<sim::MetricsRegistry::Sample>& rows,
                           const std::string& prefix) {
  std::string out = "{";
  for (const auto& s : rows) {
    if (!s.name.starts_with(prefix)) continue;
    if (out.size() > 1) out += ",";
    out += "\"" + s.name + "\":";
    if (s.kind == sim::MetricKind::kHistogram) {
      out += "{\"count\":" + reference_value(s.value) +
             ",\"p50\":" + reference_value(s.histogram->percentile(50)) +
             ",\"p99\":" + reference_value(s.histogram->percentile(99)) + "}";
    } else {
      out += reference_value(s.value);
    }
  }
  return out + "}";
}

/// A seeded registry that mixes counters, fractional gauges and
/// histograms with 0–3 VC families, and the rows a naive renderer
/// would materialize for it.
class RandomRegistry {
 public:
  explicit RandomRegistry(std::uint64_t seed) : rng_(seed) {
    std::vector<std::function<void()>> steps;
    const std::size_t families = pick(4);
    for (std::size_t f = 0; f < families; ++f) {
      steps.push_back([this] { add_family(); });
    }
    const std::size_t entries = pick(30);
    for (std::size_t e = 0; e < entries; ++e) {
      steps.push_back([this] { add_entry(); });
    }
    shuffle(steps);
    for (const auto& step : steps) step();
    std::sort(rows_.begin(), rows_.end(),
              [](const auto& a, const auto& b) { return a.name < b.name; });
  }

  const sim::MetricsRegistry& registry() const { return registry_; }
  /// Every row, sorted by name.
  const std::vector<sim::MetricsRegistry::Sample>& rows() const {
    return rows_;
  }

  /// A filter to try: empty, a family's stem or part of it, part of a
  /// row's name, a whole name, or one that matches nothing.
  std::string prefix() {
    switch (pick(6)) {
      case 0:
        return "";
      case 1:
        if (!stems_.empty()) return stems_[pick(stems_.size())];
        return "vc.";
      case 2:
        if (!stems_.empty()) {
          const std::string& stem = stems_[pick(stems_.size())];
          return stem + std::to_string(label()).substr(0, 1);
        }
        return "p";
      case 3:
        if (!rows_.empty()) return rows_[pick(rows_.size())].name;
        return "a";
      case 4:
        return "zzz";
      default:
        if (rows_.empty()) return "";
        const std::string& name = rows_[pick(rows_.size())].name;
        return name.substr(0, pick(name.size() + 1));
    }
  }

 private:
  struct Visit {
    std::uint16_t vpi, vci;
    std::vector<std::pair<std::string_view, const sim::Counter*>> rows;
  };

  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[pick(i)]);
  }

  /// Labels whose decimal order differs from their numeric order.
  std::uint16_t label() {
    static constexpr std::uint16_t kLabels[] = {
        0, 1, 2, 5, 9, 10, 11, 19, 50, 99, 100, 101, 500, 1000, 4095, 9999,
        10000, 65535};
    if (pick(4) == 0) return static_cast<std::uint16_t>(pick(65536));
    return kLabels[pick(std::size(kLabels))];
  }

  sim::Counter& new_counter() {
    sim::Counter& c = counters_.emplace_back();
    if (pick(3) != 0) c.add(rng_() % (std::uint64_t{1} << 40));
    return c;
  }

  bool claim(const std::string& name) { return names_.insert(name).second; }

  void add_family() {
    // Scopes include one nested inside another family's VC rows, so
    // two families' blocks interleave.
    static constexpr const char* kScopes[] = {
        "", "p", "p.q", "station.0.nic.rx", "station.0.nic.tx",
        "station.10.nic.rx", "p.vc.1.2.sub", "p.vc.10.sub"};
    const std::string scope = kScopes[pick(std::size(kScopes))];
    const std::string stem = scope.empty() ? "vc." : scope + ".vc.";
    if (std::find(stems_.begin(), stems_.end(), stem) != stems_.end()) return;
    stems_.push_back(stem);

    static constexpr std::string_view kRowNames[] = {
        "a", "b10", "b9", "cells", "cells_efci_marked", "pdus", "z"};
    std::vector<Visit>& visits = families_.emplace_back();
    std::set<std::pair<std::uint16_t, std::uint16_t>> seen;
    const std::size_t vcs = pick(4) == 0 ? 0 : pick(40);
    for (std::size_t i = 0; i < vcs; ++i) {
      const std::uint16_t vpi = label();
      const std::uint16_t vci = label();
      if (!seen.insert({vpi, vci}).second) continue;
      // Rows in random order; now and then the VC is visited twice,
      // each visit with its own row names.
      std::vector<std::string_view> names(std::begin(kRowNames),
                                          std::end(kRowNames));
      shuffle(names);
      const std::size_t used = pick(names.size() + 1);
      const std::size_t split = pick(8) == 0 ? pick(used + 1) : used;
      Visit first{vpi, vci, {}};
      Visit second{vpi, vci, {}};
      for (std::size_t k = 0; k < used; ++k) {
        const sim::Counter& c = new_counter();
        (k < split ? first : second).rows.emplace_back(names[k], &c);
        const std::string name = stem + std::to_string(vpi) + "." +
                                 std::to_string(vci) + "." +
                                 std::string(names[k]);
        ASSERT_TRUE(claim(name)) << name;
        rows_.push_back({name, sim::MetricKind::kCounter,
                         static_cast<double>(c.value()), nullptr});
      }
      visits.push_back(std::move(first));
      if (split < used) visits.push_back(std::move(second));
    }
    shuffle(visits);
    const auto walk = [&visits](sim::VcRowWriter& writer) {
      for (const Visit& v : visits) {
        writer.begin(v.vpi, v.vci);
        for (const auto& [name, counter] : v.rows) {
          writer.counter(name, *counter);
        }
      }
    };
    const sim::MetricScope scoped(registry_, scope);
    if (pick(4) == 0) scoped.vc_family([](sim::VcRowWriter&) {});
    scoped.vc_family(walk);  // replaces any earlier walk of this scope
  }

  void add_entry() {
    std::string name;
    if (!stems_.empty() && pick(2) == 0) {
      // Inside a family's range: between two VCs' rows, between the
      // rows of one VC, or at the very edge of the block.
      const std::string& stem = stems_[pick(stems_.size())];
      switch (pick(4)) {
        case 0:
          name = stem + std::to_string(label()) + "." +
                 std::to_string(label()) + ".named";
          break;
        case 1:
          name = stem + std::to_string(label());
          break;
        case 2:
          name = stem + std::to_string(label()) + "." +
                 std::to_string(label()) + ".d";
          break;
        default:
          name = stem.substr(0, stem.size() - 1);
          break;
      }
    } else {
      static constexpr const char* kParts[] = {
          "ab", "p", "q", "station", "0", "10", "9", "nic", "rx", "vc", "zz"};
      const std::size_t parts = 1 + pick(4);
      for (std::size_t i = 0; i < parts; ++i) {
        if (i > 0) name += '.';
        name += kParts[pick(std::size(kParts))];
      }
    }
    if (!claim(name)) return;
    switch (pick(3)) {
      case 0: {
        const sim::Counter& c = new_counter();
        registry_.expose(name, c);
        rows_.push_back({name, sim::MetricKind::kCounter,
                         static_cast<double>(c.value()), nullptr});
        break;
      }
      case 1: {
        static constexpr double kValues[] = {
            0.5, -3.25, 1e-7, 123456.789, 2.0, 1e15 + 0.5, 0.1, -7.0,
            6.02e23, 1.0 / 3.0};
        const double v = kValues[pick(std::size(kValues))];
        registry_.gauge(name, [v] { return v; });
        rows_.push_back({name, sim::MetricKind::kGauge, v, nullptr});
        break;
      }
      default: {
        sim::Histogram& h = registry_.histogram(name, 0.5, 16);
        for (std::size_t i = pick(20); i > 0; --i) {
          h.add(static_cast<double>(pick(100)) / 7.0);
        }
        rows_.push_back({name, sim::MetricKind::kHistogram,
                         static_cast<double>(h.count()), &h});
        break;
      }
    }
  }

  std::mt19937_64 rng_;
  sim::MetricsRegistry registry_;
  std::deque<sim::Counter> counters_;
  std::deque<std::vector<Visit>> families_;  // the walks hold references
  std::vector<std::string> stems_;
  std::set<std::string> names_;
  std::vector<sim::MetricsRegistry::Sample> rows_;
};

TEST(MetricsWalk, MatchesNaiveSortedRenderOnRandomRegistries) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    RandomRegistry r(seed);
    const auto& want = r.rows();
    const auto got = r.registry().snapshot();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].name, want[i].name) << "seed " << seed << " row " << i;
      EXPECT_EQ(got[i].kind, want[i].kind) << got[i].name;
      EXPECT_EQ(got[i].value, want[i].value) << got[i].name;
      EXPECT_EQ(got[i].histogram, want[i].histogram) << got[i].name;
    }
    for (int k = 0; k < 6; ++k) {
      const std::string prefix = r.prefix();
      ASSERT_EQ(r.registry().to_json(prefix), reference_json(want, prefix))
          << "seed " << seed << " prefix '" << prefix << "'";
    }
  }
}

/// Blocks one to_json() allocates for a registry of 50 named counters
/// and one family of `vcs` VCs, three rows each, visited in reverse
/// name order.
std::uint64_t to_json_allocations(std::size_t vcs) {
  sim::MetricsRegistry registry;
  const sim::MetricScope scope(registry, "station.1.bob.nic.rx");
  for (int i = 0; i < 50; ++i) {
    scope.counter("named_" + std::to_string(i)).add(static_cast<std::uint64_t>(i));
  }
  std::vector<std::pair<atm::VcId, sim::Counter>> table(vcs);
  for (std::size_t i = 0; i < vcs; ++i) {
    table[i].first = nth_vc(i);
    table[i].second.add(i);
  }
  scope.vc_family([&table](sim::VcRowWriter& rows) {
    for (auto it = table.rbegin(); it != table.rend(); ++it) {
      rows.begin(it->first.vpi, it->first.vci);
      rows.counter("cells", it->second);
      rows.counter("cells_efci_marked", it->second);
      rows.counter("pdus", it->second);
    }
  });
  const std::uint64_t before = g_allocations;
  const std::string json = registry.to_json();
  const std::uint64_t blocks = g_allocations - before;
  EXPECT_NE(json.find("\"station.1.bob.nic.rx.vc.0.32.pdus\":0"),
            std::string::npos);
  return blocks;
}

TEST(MetricsWalk, ToJsonAllocationsDoNotGrowWithRows) {
  const std::uint64_t small = to_json_allocations(64);
  const std::uint64_t large = to_json_allocations(4096);
  EXPECT_LT(large, 64u);
  EXPECT_LE(large, small + 16) << "64 VCs: " << small;
}

TEST(MetricsRegistry, TableRendersAndFiltersByPrefix) {
  sim::MetricsRegistry registry;
  registry.counter("a.x").add(1);
  registry.counter("b.y").add(2);
  const std::string all =
      core::metrics_table(registry).to_string("metrics");
  EXPECT_NE(all.find("a.x"), std::string::npos);
  EXPECT_NE(all.find("b.y"), std::string::npos);
  const std::string only_a =
      core::metrics_table(registry, "a.").to_string("metrics");
  EXPECT_NE(only_a.find("a.x"), std::string::npos);
  EXPECT_EQ(only_a.find("b.y"), std::string::npos);
}

// --- CycleProfiler --------------------------------------------------

TEST(CycleProfiler, PhaseRegistrationFindsOrCreates) {
  sim::CycleProfiler p(25e6);
  const auto a = p.phase("header build");
  const auto b = p.phase("payload CRC");
  EXPECT_NE(a, b);
  EXPECT_EQ(p.phase("header build"), a);  // find, not re-register
  EXPECT_EQ(p.phases(), 2u);
}

TEST(CycleProfiler, StatsConvertTimeToCycles) {
  sim::CycleProfiler p(25e6);  // 40 ns per cycle
  const auto ph = p.phase("crc");
  p.add(ph, sim::microseconds(4), 2);  // 100 cycles over 2 items
  const auto stats = p.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "crc");
  EXPECT_EQ(stats[0].items, 2u);
  EXPECT_EQ(stats[0].total, sim::microseconds(4));
  EXPECT_DOUBLE_EQ(stats[0].cycles, 100.0);
  EXPECT_DOUBLE_EQ(stats[0].cycles_per_item, 50.0);
  EXPECT_EQ(stats[0].time_per_item, sim::microseconds(2));
  EXPECT_EQ(p.total(), sim::microseconds(4));
}

TEST(CycleProfiler, StatsKeepRegistrationOrder) {
  // The cycle-budget table rows must follow pipeline order, not
  // alphabetical order.
  sim::CycleProfiler p(1e6);
  p.phase("zeta first");
  p.phase("alpha second");
  const auto stats = p.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "zeta first");
  EXPECT_EQ(stats[1].name, "alpha second");
}

TEST(CycleProfiler, ResetClearsTotalsKeepsPhases) {
  sim::CycleProfiler p(1e6);
  const auto ph = p.phase("x");
  p.add(ph, 1000);
  p.reset();
  EXPECT_EQ(p.phases(), 1u);
  EXPECT_EQ(p.total(), 0);
  EXPECT_EQ(p.stats()[0].items, 0u);
}

TEST(CycleProfiler, RejectsNonPositiveClock) {
  EXPECT_THROW(sim::CycleProfiler(0.0), std::invalid_argument);
  EXPECT_THROW(sim::CycleProfiler(-25e6), std::invalid_argument);
}

// --- TimeWeightedStat -----------------------------------------------

TEST(TimeWeightedStat, MeanIsReadOnlyAndRepeatable) {
  sim::TimeWeightedStat s;
  s.set(0, 2.0);
  s.set(10, 4.0);
  const sim::TimeWeightedStat& view = s;  // must compile against const
  EXPECT_DOUBLE_EQ(view.mean(10), 2.0);
  EXPECT_DOUBLE_EQ(view.mean(20), 3.0);  // extends arithmetically
  EXPECT_DOUBLE_EQ(view.mean(20), 3.0);  // repeated read: same answer
  EXPECT_DOUBLE_EQ(view.mean(10), 2.0);  // earlier read still intact
}

TEST(TimeWeightedStat, OutOfOrderReadClampsToFrontier) {
  sim::TimeWeightedStat s;
  s.set(0, 2.0);
  s.set(10, 4.0);
  // A reader with a stale clock (now=4 < last change at 10) must get
  // the frontier mean, and must not corrupt later reads.
  EXPECT_DOUBLE_EQ(s.mean(4), 2.0);
  EXPECT_DOUBLE_EQ(s.mean(20), 3.0);
}

TEST(TimeWeightedStat, StaleWriteCannotMoveBooksBackwards) {
  sim::TimeWeightedStat s;
  s.set(0, 2.0);
  s.set(10, 4.0);
  s.set(5, 6.0);  // non-monotonic writer: takes effect at the frontier
  EXPECT_DOUBLE_EQ(s.current(), 6.0);
  // [0,10) at 2.0, [10,20) at 6.0.
  EXPECT_DOUBLE_EQ(s.mean(20), 4.0);
}

TEST(TimeWeightedStat, AdvanceIntegratesWithoutChangingValue) {
  sim::TimeWeightedStat s;
  s.set(0, 3.0);
  s.advance(10);
  EXPECT_DOUBLE_EQ(s.current(), 3.0);
  EXPECT_DOUBLE_EQ(s.mean(10), 3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

// --- Histogram percentile edges -------------------------------------

TEST(Histogram, EmptyPercentileIsZero) {
  sim::Histogram h(1.0, 8);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.0);
}

TEST(Histogram, PercentileExtremes) {
  sim::Histogram h(1.0, 10);
  h.add(5.5);
  // p=0 sits at the distribution floor; p=100 at the top edge of the
  // bin holding the maximum.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 6.0);
  // Out-of-range p clamps rather than throws.
  EXPECT_DOUBLE_EQ(h.percentile(-5.0), h.percentile(0.0));
  EXPECT_DOUBLE_EQ(h.percentile(250.0), h.percentile(100.0));
}

TEST(Histogram, AllMassInOverflowReportsTopEdge) {
  sim::Histogram h(1.0, 4);
  h.add(10.0);
  h.add(99.0);
  h.add(1e9);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.overflow(), 3u);
  // Every percentile saturates at the histogram's top edge — the
  // honest answer when the distribution escaped the binned range.
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 4.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 4.0);
}

TEST(Histogram, SingleBinLinearInterpolation) {
  sim::Histogram h(10.0, 10);
  for (int i = 0; i < 4; ++i) h.add(1.0 + i);  // all land in bin 0
  EXPECT_DOUBLE_EQ(h.percentile(25.0), 2.5);   // 1/4 through the bin
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 5.0);   // halfway through
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);  // bin top edge
}

// --- Priority-lane drop accounting (regression) ---------------------
//
// A full RX FIFO during a link-down alarm: the PHY's substituted AIS
// cell takes the priority lane and is refused. The refusal must land in
// its own book (priority_drops), emit a typed trace event, and keep the
// auditor's conservation identities balanced.

TEST(PriorityLane, FullRxFifoDuringLinkDownAlarmCountsSeparately) {
  core::Testbed bed;
  sim::TraceRing& ring = bed.tracer().ring(64);

  core::StationConfig small;
  small.name = "bob";
  small.nic.rx.fifo_cells = 4;
  auto& a = bed.add_station({});
  auto& b = bed.add_station(small);
  auto [ab, ba] = bed.connect(a, b);
  (void)ba;
  a.nic().open_vc(kVc, aal::AalType::kAal5);
  b.nic().open_vc(kVc, aal::AalType::kAal5);

  // Fill b's RX FIFO synchronously — the service engine never gets a
  // chance to drain because the simulator clock is held still.
  const auto cells = aal::aal5_segment(aal::make_pattern(400, 1), kVc);
  ASSERT_GT(cells.size(), 4u);
  for (const auto& cell : cells) {
    net::WireCell w;
    w.bytes = cell.serialize(atm::HeaderFormat::kUni);
    b.nic().rx().receive_wire(w);
  }
  // (The engine grabs the first cell at push time, so drops are one shy
  // of offered-minus-capacity; what matters is that the FIFO is full.)
  ASSERT_TRUE(b.nic().rx().fifo().full());
  const std::uint64_t data_drops = b.nic().rx().fifo().drops();
  EXPECT_GT(data_drops, 0u);
  EXPECT_EQ(b.nic().rx().fifo().priority_drops(), 0u);

  // Loss of signal: the PHY substitutes one AIS cell per open VC, fed
  // through the same receive path — and the FIFO is still full.
  ab->set_down(true);
  EXPECT_EQ(b.nic().ais_inserted(), 1u);
  EXPECT_EQ(b.nic().rx().fifo().priority_drops(), 1u);
  // The alarm loss did not leak into the data-loss book.
  EXPECT_EQ(b.nic().rx().fifo().drops(), data_drops);

  // The refusal is visible in the trace ring as a typed event carrying
  // the occupancy at the drop, attributed to bob's RX FIFO.
  std::size_t priority_events = 0;
  ring.for_each([&](const sim::TraceEvent& ev) {
    if (ev.id != sim::TraceEventId::kFifoPriorityDrop) return;
    ++priority_events;
    EXPECT_EQ(ev.a, 4u);  // occupancy == capacity at the refusal
    const std::string& who = bed.tracer().source_name(ev.source);
    EXPECT_NE(who.find("bob.nic.rx.fifo"), std::string::npos) << who;
  });
  EXPECT_EQ(priority_events, 1u);

  // The separate book keeps the conservation identities balanced.
  core::InvariantAuditor auditor;
  auditor.audit_station(b);
  EXPECT_TRUE(auditor.ok()) << auditor.report();

  // The metrics tree exports the new book alongside the old one.
  const std::string json = bed.metrics().to_json();
  EXPECT_NE(json.find(".nic.rx.fifo.priority_drops\":1"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace hni
