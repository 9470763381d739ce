// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent). The benchmark opens one around
// each public call it wraps; spans nest on a stack, so a span's self
// time is its duration minus the time its direct children cover.
// Per-name totals are exact for every span; the raw spans kept for the
// Chrome trace are capped per name, so a long run cannot exhaust memory
// and rare spans (set-up, teardown) survive a flood of per-cell ones.

#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace hostbench {

class SpanRecorder {
 public:
  using Id = std::uint16_t;
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;
    std::int64_t self_ns() const { return total_ns - child_ns; }
  };

  struct Raw {
    Id name = 0;
    std::uint32_t parent = kNoParent;  // index into raw spans
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Keeps the first `raw_per_name` raw spans of each name.
  explicit SpanRecorder(std::size_t raw_per_name = 0)
      : raw_per_name_(raw_per_name) {}

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  Id intern(std::string name) {
    names_.push_back(std::move(name));
    totals_.emplace_back();
    kept_.push_back(0);
    return static_cast<Id>(names_.size() - 1);
  }

  void begin(Id id) { begin(id, now_ns()); }
  void end() { end(now_ns()); }

  /// Explicit-time forms (the clock forms call these; tests use them).
  void begin(Id id, std::int64_t t_ns) {
    std::uint32_t raw = kNoParent;
    if (kept_[id] < raw_per_name_) {
      ++kept_[id];
      raw = static_cast<std::uint32_t>(raw_.size());
      raw_.push_back({id, open_.empty() ? kNoParent : open_.back().raw,
                      t_ns, t_ns});
    } else {
      ++raw_dropped_;
    }
    open_.push_back({id, raw, t_ns, 0});
  }
  void end(std::int64_t t_ns) {
    const Open o = open_.back();
    open_.pop_back();
    const std::int64_t dur = t_ns - o.start_ns;
    Totals& t = totals_[o.name];
    ++t.count;
    t.total_ns += dur;
    t.child_ns += o.child_ns;
    if (!open_.empty()) open_.back().child_ns += dur;
    if (o.raw != kNoParent) raw_[o.raw].end_ns = t_ns;
  }

  std::size_t depth() const { return open_.size(); }
  const Totals& totals(Id id) const { return totals_.at(id); }
  /// Every name's totals right now; diff two to total a phase.
  std::vector<Totals> snapshot() const { return totals_; }
  const std::vector<Raw>& raw() const { return raw_; }
  std::uint64_t raw_dropped() const { return raw_dropped_; }

  /// Writes the kept spans as Chrome trace-event JSON ("X" complete
  /// events, microsecond timestamps relative to the first span), loadable
  /// in chrome://tracing or Perfetto.
  void write_chrome_trace(std::ostream& os, const std::string& workload,
                          std::uint64_t seed) const {
    const std::int64_t t0 = raw_.empty() ? 0 : raw_.front().start_ns;
    os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\""
       << workload << "\",\"seed\":" << seed
       << ",\"spans_dropped\":" << raw_dropped_ << "},\"traceEvents\":[";
    for (std::size_t i = 0; i < raw_.size(); ++i) {
      const Raw& r = raw_[i];
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << names_[r.name]
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
         << static_cast<double>(r.start_ns - t0) / 1e3
         << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
         << ",\"args\":{\"id\":" << i << ",\"parent\":";
      if (r.parent == kNoParent) {
        os << "null";
      } else {
        os << r.parent;
      }
      os << ",\"workload\":\"" << workload << "\"}}";
    }
    os << "\n]}\n";
  }

 private:
  struct Open {
    Id name;
    std::uint32_t raw;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  std::size_t raw_per_name_;
  std::vector<std::string> names_;
  std::vector<std::size_t> kept_;  // raw spans kept, per name
  std::vector<Totals> totals_;
  std::vector<Open> open_;
  std::vector<Raw> raw_;
  std::uint64_t raw_dropped_ = 0;
};

/// Opens a span for the current scope; a null recorder (untraced run)
/// costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, SpanRecorder::Id id) : rec_(rec) {
    if (rec_) rec_->begin(id);
  }
  ~ScopedSpan() {
    if (rec_) rec_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
};

}  // namespace hostbench
