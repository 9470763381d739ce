// The benchmark's own arithmetic: tail percentiles over time slices,
// guarded per-unit ratios and metric-name checks. Header-only so the
// tests link nothing but this file.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace hostbench {

/// Nearest-rank percentile `q` (0 < q < 1) of `xs`. Returns nullopt
/// unless at least `min_beyond` samples rank above the chosen one, so a
/// reported tail always rests on that many observations.
inline std::optional<double> tail_percentile(std::vector<double> xs, double q,
                                             std::size_t min_beyond = 10) {
  if (xs.empty() || q <= 0.0 || q >= 1.0) return std::nullopt;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));  // 1-based
  if (xs.size() - rank < min_beyond) return std::nullopt;
  return xs[rank - 1];
}

/// `num` per unit of `den`. A zero (or negative) denominator has no
/// meaning for a per-cell or per-byte cost, so it throws instead of
/// producing inf/NaN that would read as a measurement.
inline double per(double num, double den, const char* what) {
  if (!(den > 0.0)) {
    throw std::domain_error(std::string("zero denominator: ") + what);
  }
  return num / den;
}

/// Like per(), but a layer that never ran (zero denominator) reports 0.
inline double per_or_zero(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Metric and workload names: 1..64 of [A-Za-z0-9_.-], starting with a
/// letter or digit.
inline bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace hostbench
