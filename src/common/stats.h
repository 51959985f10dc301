#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace setsched {

/// Linear-interpolation percentile, q in [0, 1]. Input need not be sorted.
/// Throws CheckError on an empty sample and on q outside [0, 1] (including
/// NaN); a single-element sample returns that element for every valid q.
[[nodiscard]] double percentile(std::span<const double> sample, double q);

/// Arithmetic mean; 0.0 for an empty sample. Well-defined on any input so
/// aggregators may call it on failure-filtered (possibly empty) buckets.
[[nodiscard]] double mean(std::span<const double> sample);

/// Maximum value; 0.0 for an empty sample (same contract as mean()).
[[nodiscard]] double max_value(std::span<const double> sample);

/// Online mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept;  ///< sample variance
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace setsched
