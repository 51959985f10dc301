#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace setsched {

double percentile(std::span<const double> sample, double q) {
  check(!sample.empty(), "percentile of empty sample");
  // Written so NaN q (which fails every comparison) is rejected too.
  check(q >= 0.0 && q <= 1.0, "percentile q out of [0,1]");
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double mean(std::span<const double> sample) {
  if (sample.empty()) return 0.0;
  RunningStats rs;
  for (const double x : sample) rs.add(x);
  return rs.mean();
}

double max_value(std::span<const double> sample) {
  if (sample.empty()) return 0.0;
  return *std::max_element(sample.begin(), sample.end());
}

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace setsched
