// Order statistics for the benchmark's reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace nodebench {

/// Nearest-rank percentile `pct` (0 < pct <= 100) of `values`; 0 when
/// empty. Reorders `values`.
template <typename T>
double percentile(std::vector<T>& values, double pct) {
  if (values.empty()) return 0.0;
  const double n = static_cast<double>(values.size());
  // The epsilon keeps pct/100*n that is integral in exact arithmetic from
  // rounding up a whole rank.
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return static_cast<double>(*nth);
}

template <typename T>
double median(std::vector<T> values) {
  return percentile(values, 50.0);
}

/// A tail percentile together with the percentile the sample supports.
struct Tail {
  double pct = 0.0;    ///< percentile actually reported
  double value = 0.0;
  std::size_t samples = 0;
};

/// The highest percentile not above `want` that leaves at least
/// `beyond` samples strictly above its nearest rank: with n samples that
/// is 100 * (n - beyond) / n, rounded down to a hundredth. Samples too few
/// to leave `beyond` above the median fall back to the median.
template <typename T>
Tail tail_percentile(std::vector<T>& values, double want,
                     std::size_t beyond = 10) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  const double n = static_cast<double>(values.size());
  double supported =
      values.size() > beyond
          ? std::floor(10000.0 * (n - static_cast<double>(beyond)) / n) / 100.0
          : 0.0;
  tail.pct = std::max(50.0, std::min(want, supported));
  tail.value = percentile(values, tail.pct);
  return tail;
}

}  // namespace nodebench
