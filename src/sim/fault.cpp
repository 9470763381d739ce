#include "sim/fault.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hni::sim {

void FaultInjector::register_point(std::string name, Handler handler,
                                   double default_magnitude) {
  if (find(name) != nullptr) {
    throw std::invalid_argument("FaultInjector: duplicate point " + name);
  }
  points_.push_back(
      Point{std::move(name), std::move(handler), default_magnitude});
}

bool FaultInjector::has_point(const std::string& name) const {
  return find(name) != nullptr;
}

const FaultInjector::Point* FaultInjector::find(
    const std::string& name) const {
  for (const auto& p : points_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

void FaultInjector::fire(const Point& point, FaultPhase phase, Time duration,
                         double magnitude, std::uint64_t id) {
  FaultEvent ev;
  ev.point = point.name;
  ev.phase = phase;
  ev.at = sim_.now();
  ev.duration = duration;
  ev.magnitude = magnitude;
  ev.id = id;
  log_.push_back(ev);
  if (phase == FaultPhase::kBegin) begun_.add();
  point.handler(ev);
}

void FaultInjector::schedule(const Spec& spec) {
  const Point* point = find(spec.point);
  if (point == nullptr) {
    throw std::invalid_argument("FaultInjector: unknown point " + spec.point);
  }
  const std::uint64_t repeat = std::max<std::uint64_t>(1, spec.repeat);
  for (std::uint64_t i = 0; i < repeat; ++i) {
    const Time at =
        spec.at + static_cast<Time>(i) * std::max<Time>(0, spec.period);
    const std::uint64_t id = next_id_++;
    sim_.at(std::max(at, sim_.now()), [this, point, spec, id] {
      fire(*point, FaultPhase::kBegin, spec.duration, spec.magnitude, id);
      if (spec.duration > 0) {
        sim_.after(spec.duration, [this, point, spec, id] {
          fire(*point, FaultPhase::kEnd, spec.duration, spec.magnitude, id);
        });
      }
    });
  }
}

void FaultInjector::chaos(Time start, Time horizon, std::size_t count,
                          Time mean_duration) {
  if (points_.empty() || count == 0) return;
  if (horizon <= start) {
    throw std::invalid_argument("FaultInjector: empty chaos window");
  }
  for (std::size_t i = 0; i < count; ++i) {
    const Point& point =
        points_[rng_.uniform_int(0, points_.size() - 1)];
    Spec spec;
    spec.point = point.name;
    spec.at = start + static_cast<Time>(rng_.uniform_int(
                          0, static_cast<std::uint64_t>(horizon - start - 1)));
    spec.duration = std::max<Time>(
        1, static_cast<Time>(
               rng_.exponential(static_cast<double>(mean_duration))));
    spec.magnitude = point.default_magnitude;
    schedule(spec);
  }
}

std::string FaultInjector::log_string() const {
  std::string out;
  for (const auto& ev : log_) {
    out += std::to_string(ev.at) + " " + ev.point +
           (ev.phase == FaultPhase::kBegin ? " begin" : " end") + " d=" +
           std::to_string(ev.duration) + " m=" + std::to_string(ev.magnitude) +
           " id=" + std::to_string(ev.id) + "\n";
  }
  return out;
}

}  // namespace hni::sim
