#include <gtest/gtest.h>

#include "core/bounds.h"
#include "core/generators.h"
#include "exact/branch_bound.h"
#include "uniform/lpt.h"

namespace setsched {
namespace {

UniformInstance two_machine_instance() {
  UniformInstance u;
  u.job_size = {8, 6, 4, 2};
  u.job_class = {0, 0, 1, 1};
  u.setup_size = {1, 1};
  u.speed = {1, 1};
  return u;
}

TEST(LptUniform, ProducesCompleteValidSchedule) {
  const UniformInstance u = two_machine_instance();
  const ScheduleResult r = lpt_with_placeholders(u);
  EXPECT_TRUE(r.schedule.complete());
  EXPECT_DOUBLE_EQ(r.makespan, makespan(u, r.schedule));
}

TEST(LptUniform, BalancesIdenticalMachines) {
  // Without setups LPT on {8,6,4,2} over 2 machines gives loads 10/10.
  UniformInstance u = two_machine_instance();
  u.setup_size = {0, 0};
  const ScheduleResult r = lpt_with_placeholders(u);
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);
}

TEST(LptUniform, FasterMachineGetsMoreWork) {
  UniformInstance u;
  u.job_size = {10, 10, 10, 10};
  u.job_class = {0, 0, 0, 0};
  u.setup_size = {0};
  u.speed = {1, 3};
  const ScheduleResult r = lpt_with_placeholders(u);
  // Optimal: 3 jobs on fast (30/3=10), 1 on slow (10). LPT achieves it.
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);
}

TEST(LptPlaceholders, HandlesInstanceWithoutSmallJobs) {
  // All jobs >= setup size: behaves like plain LPT, which puts {8, 2} and
  // {6, 4} together, each machine holding both classes: 10 + 2 setups.
  UniformInstance u = two_machine_instance();  // sizes 8,6,4,2 >= setups 1,1
  const ScheduleResult placeholder = lpt_with_placeholders(u);
  EXPECT_DOUBLE_EQ(placeholder.makespan, 12.0);
}

TEST(LptPlaceholders, MergesSmallJobs) {
  // 10 tiny jobs of one class with a big setup: placeholders force batching.
  UniformInstance u;
  u.job_size.assign(10, 1.0);
  u.job_class.assign(10, 0);
  u.setup_size = {10.0};
  u.speed = {1, 1};
  const ScheduleResult r = lpt_with_placeholders(u);
  EXPECT_TRUE(r.schedule.complete());
  // One placeholder of size 10 => all jobs on one machine: 10 + setup 10.
  EXPECT_DOUBLE_EQ(r.makespan, 20.0);
}

TEST(LptPlaceholders, SplitsWhenWorkExceedsSetup) {
  // 40 units of tiny work, setup 10: 4 placeholders spread over 2 machines.
  UniformInstance u;
  u.job_size.assign(40, 1.0);
  u.job_class.assign(40, 0);
  u.setup_size = {10.0};
  u.speed = {1, 1};
  const ScheduleResult r = lpt_with_placeholders(u);
  EXPECT_TRUE(r.schedule.complete());
  // Each machine: ~2 placeholders (20 work) + setup 10 = 30 (+1 overpack).
  EXPECT_LE(r.makespan, 31.0);
  EXPECT_GE(r.makespan, 30.0);
}

TEST(LptPlaceholders, ZeroSetupDegenerateCase) {
  UniformInstance u;
  u.job_size = {1, 1, 1, 1};
  u.job_class = {0, 0, 0, 0};
  u.setup_size = {0.0};
  u.speed = {1, 1};
  const ScheduleResult r = lpt_with_placeholders(u);
  EXPECT_TRUE(r.schedule.complete());
  EXPECT_FALSE(schedule_error(u.to_unrelated(), r.schedule).has_value());
}

TEST(LptPlaceholders, SingleMachine) {
  UniformInstance u;
  u.job_size = {3, 1, 2};
  u.job_class = {0, 1, 0};
  u.setup_size = {2, 2};
  u.speed = {4};
  const ScheduleResult r = lpt_with_placeholders(u);
  // Everything on the single machine: (3+1+2+2+2)/4 = 2.5
  EXPECT_DOUBLE_EQ(r.makespan, 2.5);
}

class LptRatioTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LptRatioTest, WithinLemma21FactorOfOptimal) {
  UniformGenParams p;
  p.num_jobs = 10;
  p.num_machines = 3;
  p.num_classes = 3;
  p.min_job_size = 1;
  p.max_job_size = 40;
  p.min_setup = 1;
  p.max_setup = 30;
  p.profile = GetParam() % 2 == 0 ? SpeedProfile::kUniformRandom
                                  : SpeedProfile::kIdentical;
  const UniformInstance u = generate_uniform(p, GetParam());
  const ScheduleResult r = lpt_with_placeholders(u);
  const ExactResult opt = solve_exact(u);
  ASSERT_TRUE(opt.proven_optimal);
  EXPECT_FALSE(schedule_error(u.to_unrelated(), r.schedule).has_value());
  EXPECT_LE(r.makespan, kLptSetupFactor * opt.makespan + 1e-9)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LptRatioTest,
                         ::testing::Range<std::uint64_t>(0, 30));

class LptLowerBoundTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LptLowerBoundTest, WithinFactorOfLowerBoundOnLargeInstances) {
  UniformGenParams p;
  p.num_jobs = 300;
  p.num_machines = 8;
  p.num_classes = 12;
  p.profile = SpeedProfile::kUniformRandom;
  const UniformInstance u = generate_uniform(p, GetParam() + 900);
  const ScheduleResult r = lpt_with_placeholders(u);
  const double lb = uniform_lower_bound(u);
  EXPECT_LE(r.makespan, kLptSetupFactor * lb * 1.0001) << "seed " << GetParam();
  EXPECT_GE(r.makespan + 1e-9, lb);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LptLowerBoundTest,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(LptFactorConstants, MatchPaperValues) {
  EXPECT_NEAR(kLptUniformFactor, 1.577, 0.001);
  EXPECT_NEAR(kLptSetupFactor, 4.732, 0.001);
}

}  // namespace
}  // namespace setsched
