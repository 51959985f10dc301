#pragma once

#include <cmath>
#include <optional>

namespace setsched {

/// Next probe of a geometric binary search over [lo, hi], 0 < lo <= hi, run
/// to relative width `precision`: sqrt(lo * hi), or nullopt once the search
/// is done. It is done when hi / lo <= 1 + precision, and also when the
/// midpoint is not strictly inside (lo, hi). That second test ends searches
/// whose precision lies below machine epsilon (1.0 + 1e-16 == 1.0): once lo
/// and hi are adjacent doubles, sqrt(lo * hi) returns one of them, and the
/// search would probe the same T forever. Every search that stopped by the
/// width test alone gets the same midpoints.
[[nodiscard]] inline std::optional<double> geometric_midpoint(
    double lo, double hi, double precision) {
  if (hi / lo > 1.0 + precision) {
    const double mid = std::sqrt(lo * hi);
    if (lo < mid && mid < hi) return mid;
  }
  return std::nullopt;
}

}  // namespace setsched
