#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "common/bisect.h"
#include "common/check.h"
#include "common/matrix.h"
#include "common/prng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace setsched {
namespace {

TEST(GeometricMidpoint, IsTheGeometricMeanUntilTheBracketIsNarrow) {
  EXPECT_EQ(geometric_midpoint(2.0, 8.0, 0.05), std::sqrt(2.0 * 8.0));
  EXPECT_EQ(geometric_midpoint(100.0, 104.0, 0.05), std::nullopt);
}

TEST(GeometricMidpoint, StopsAtAdjacentDoublesBelowMachineEpsilon) {
  const double lo = 1000.0;
  const double hi = std::nextafter(lo, 2000.0);
  EXPECT_EQ(geometric_midpoint(lo, hi, 1e-300), std::nullopt);
  // A search at that precision ends, and a few ulps apart.
  double a = 1.0;
  double b = 3.0;
  std::size_t probes = 0;
  while (const std::optional<double> mid = geometric_midpoint(a, b, 1e-300)) {
    ASSERT_LT(++probes, 200u);
    (*mid * *mid < 2.0 ? a : b) = *mid;
  }
  EXPECT_LE(b / a, 1.0 + 1e-15);
  EXPECT_LE(a * a, 2.0);
}

TEST(Check, PassesOnTrue) { EXPECT_NO_THROW(check(true, "ok")); }

TEST(Check, ThrowsWithMessageAndLocation) {
  try {
    check(false, "boom");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"), std::string::npos);
  }
}

TEST(Prng, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b();
  EXPECT_LT(same, 2);
}

TEST(Prng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Prng, NextBelowRespectsBound) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Prng, NextIntInclusiveRange) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Prng, NextRealRange) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.next_real(2.5, 9.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 9.5);
  }
}

TEST(Prng, BernoulliExtremes) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bernoulli(0.0));
    EXPECT_TRUE(rng.next_bernoulli(1.0));
  }
}

TEST(Prng, BernoulliFrequency) {
  Xoshiro256 rng(19);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.next_bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Prng, RandomPermutationIsPermutation) {
  Xoshiro256 rng(23);
  const auto perm = random_permutation<std::uint32_t>(50, rng);
  std::set<std::uint32_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 50u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 49u);
}

TEST(Prng, SplitProducesIndependentStream) {
  Xoshiro256 parent(31);
  Xoshiro256 child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent() == child();
  EXPECT_LT(same, 2);
}

TEST(Matrix, StoresValues) {
  Matrix<double> m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(Matrix, AtChecksBounds) {
  Matrix<int> m(2, 2);
  EXPECT_THROW((void)m.at(2, 0), CheckError);
  EXPECT_THROW((void)m.at(0, 2), CheckError);
  EXPECT_NO_THROW((void)m.at(1, 1));
}

TEST(Matrix, RowPointerContiguous) {
  Matrix<int> m(3, 4);
  m(1, 0) = 10;
  m(1, 3) = 13;
  const int* row = m.row(1);
  EXPECT_EQ(row[0], 10);
  EXPECT_EQ(row[3], 13);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25.0);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::vector<double> v{40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25.0);
}

TEST(Stats, PercentileEdgeCases) {
  // Empty input and out-of-range q (including NaN) are loud CheckErrors;
  // a single-element sample is that element for every valid q.
  EXPECT_THROW((void)percentile({}, 0.5), CheckError);
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(one, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(percentile(one, 1.0), 7.0);
  EXPECT_THROW((void)percentile(one, -0.1), CheckError);
  EXPECT_THROW((void)percentile(one, 1.1), CheckError);
  EXPECT_THROW((void)percentile(one, std::numeric_limits<double>::quiet_NaN()),
               CheckError);
}

TEST(Stats, MeanAndMaxValue) {
  const std::vector<double> v{2.0, 8.0, 5.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_DOUBLE_EQ(max_value(v), 8.0);
  // Both are defined (0.0) on empty samples, so aggregators may call them on
  // failure-filtered buckets without guarding.
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(max_value({}), 0.0);
  const std::vector<double> one{-3.5};
  EXPECT_DOUBLE_EQ(mean(one), -3.5);
  EXPECT_DOUBLE_EQ(max_value(one), -3.5);
}

TEST(Stats, RunningStatsMatchesTwoPass) {
  Xoshiro256 rng(3);
  std::vector<double> v(1000);
  for (auto& x : v) x = rng.next_real(-5, 5);
  RunningStats rs;
  for (const double x : v) rs.add(x);
  const double m = mean(v);
  double squares = 0.0;
  for (const double x : v) squares += (x - m) * (x - m);
  EXPECT_EQ(rs.count(), v.size());
  EXPECT_NEAR(rs.mean(), m, 1e-9);
  EXPECT_NEAR(rs.stddev(), std::sqrt(squares / (v.size() - 1.0)), 1e-9);
  EXPECT_DOUBLE_EQ(rs.min(), *std::min_element(v.begin(), v.end()));
  EXPECT_DOUBLE_EQ(rs.max(), max_value(v));
}

// deadline_in is the one seconds-to-deadline conversion: a span beyond the
// clock's range must mean "no deadline", not overflow into the past.
TEST(Deadline, HugeSpanIsNoDeadline) {
  using Clock = std::chrono::steady_clock;
  EXPECT_EQ(deadline_in(1e300), Clock::time_point::max());
  EXPECT_EQ(deadline_in(std::numeric_limits<double>::infinity()),
            Clock::time_point::max());
  // About 31,700 years: past the ~292 years a signed 64-bit nanosecond
  // tick count spans.
  EXPECT_EQ(deadline_in(1e12), Clock::time_point::max());
}

TEST(Deadline, OrdinarySpanLandsAfterNow) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point before = Clock::now();
  const Clock::time_point at = deadline_in(60.0);
  EXPECT_GE(at, before + std::chrono::seconds(60));
  EXPECT_LT(at, Clock::now() + std::chrono::seconds(61));
  const Clock::time_point zero = deadline_in(0.0);
  const Clock::time_point negative = deadline_in(-5.0);
  EXPECT_LE(zero, Clock::now());
  EXPECT_LE(negative, Clock::now());
}

TEST(Deadline, EarlierCapWins) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point cap = Clock::now() + std::chrono::seconds(1);
  EXPECT_EQ(deadline_in(1e300, cap), cap);
  EXPECT_EQ(deadline_in(3600.0, cap), cap);
  const Clock::time_point late = Clock::now() + std::chrono::hours(24);
  EXPECT_LT(deadline_in(1.0, late), late);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // A range with a non-zero begin visits exactly [begin, end).
  pool.parallel_for(7, 100, [&](std::size_t i) { hits[i]++; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), i >= 7 && i < 100 ? 2 : 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 10,
                        [&](std::size_t i) {
                          if (i == 3) throw std::runtime_error("task failed");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(0, 50, [&](std::size_t) { sum++; });
  }
  EXPECT_EQ(sum.load(), 250);
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.row().add("alpha").add(std::size_t{1});
  t.row().add("b").add(2.5, 1);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row().add("x").add(std::size_t{3});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\nx,3\n");
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  t.row().add("one");
  EXPECT_THROW(t.add("two"), CheckError);
}

}  // namespace
}  // namespace setsched
