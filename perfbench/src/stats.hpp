#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle samples for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) {
    throw std::invalid_argument("median of no samples");
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: the smallest sample such that at least a
/// share `q` (0 < q <= 1) of all samples is at or below it. It is always
/// a measured value, never an interpolation between two requests.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    throw std::invalid_argument("percentile of no samples");
  }
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile rank must be in (0, 1]");
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// Samples strictly above `value` — how many requests lie beyond a
/// reported percentile (the guide asks for at least ten behind a tail).
inline std::size_t samples_beyond(const std::vector<double>& v, double value) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > value; }));
}

} // namespace perfbench
