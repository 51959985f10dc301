#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "core/bounds.h"
#include "core/generators.h"
#include "exact/branch_bound.h"
#include "uniform/groups.h"
#include "uniform/lpt.h"
#include "uniform/ptas.h"
#include "uniform/reconstruct.h"
#include "uniform/relaxed_dp.h"
#include "uniform/simplify.h"

namespace setsched {
namespace {

UniformInstance tiny_uniform(std::uint64_t seed, std::size_t jobs = 8,
                             std::size_t machines = 3, std::size_t classes = 2) {
  UniformGenParams p;
  p.num_jobs = jobs;
  p.num_machines = machines;
  p.num_classes = classes;
  p.min_job_size = 1;
  p.max_job_size = 30;
  p.min_setup = 1;
  p.max_setup = 15;
  p.profile = seed % 2 == 0 ? SpeedProfile::kIdentical
                            : SpeedProfile::kUniformRandom;
  p.max_speed_ratio = 4.0;
  return generate_uniform(p, seed);
}

TEST(RelaxedDp, FeasibleAtGenerousT) {
  const UniformInstance u = tiny_uniform(1);
  const double eps = 0.5;
  const double T = uniform_lower_bound(u) * 8.0;
  const SimplifiedInstance s = simplify_instance(u, T, eps);
  const double vmin = *std::min_element(s.instance.speed.begin(),
                                        s.instance.speed.end());
  const GroupStructure groups(eps, vmin, T);
  const RelaxedDpResult dp =
      solve_relaxed_dp(s.instance, groups, PtasOptions{}.max_states);
  EXPECT_EQ(dp.status, DpStatus::kFeasible);
}

TEST(RelaxedDp, InfeasibleBelowLowerBound) {
  const UniformInstance u = tiny_uniform(2);
  const double eps = 0.5;
  const double T = uniform_lower_bound(u) * 0.25;
  const SimplifiedInstance s = simplify_instance(u, T, eps);
  const double vmin = *std::min_element(s.instance.speed.begin(),
                                        s.instance.speed.end());
  const GroupStructure groups(eps, vmin, T);
  const RelaxedDpResult dp =
      solve_relaxed_dp(s.instance, groups, PtasOptions{}.max_states);
  EXPECT_EQ(dp.status, DpStatus::kInfeasible);
}

TEST(RelaxedDp, FeasibleVerdictYieldsValidRelaxedSchedule) {
  const UniformInstance u = tiny_uniform(3);
  const double eps = 0.5;
  const double T = uniform_lower_bound(u) * 4.0;
  const SimplifiedInstance s = simplify_instance(u, T, eps);
  const double vmin = *std::min_element(s.instance.speed.begin(),
                                        s.instance.speed.end());
  const GroupStructure groups(eps, vmin, T);
  const RelaxedDpResult dp =
      solve_relaxed_dp(s.instance, groups, PtasOptions{}.max_states);
  ASSERT_EQ(dp.status, DpStatus::kFeasible);

  // Every job is either integrally assigned or recorded as fractional.
  std::vector<char> seen(s.instance.num_jobs(), 0);
  for (JobId j = 0; j < s.instance.num_jobs(); ++j) {
    if (dp.relaxed.integral.assignment[j] != kUnassigned) seen[j] = 1;
  }
  for (const auto& [g, jobs] : dp.relaxed.fractional_by_group) {
    for (const JobId j : jobs) {
      EXPECT_FALSE(seen[j]) << "job " << j << " both integral and fractional";
      seen[j] = 1;
    }
  }
  for (JobId j = 0; j < s.instance.num_jobs(); ++j) {
    EXPECT_TRUE(seen[j]) << "job " << j << " unaccounted";
  }
  // Relaxed loads respect the makespan guess.
  for (MachineId i = 0; i < s.instance.num_machines(); ++i) {
    EXPECT_LE(dp.relaxed.relaxed_load[i],
              s.instance.speed[i] * T * (1 + 1e-9));
  }
}

TEST(RelaxedDp, ReconstructionPlacesAllJobs) {
  const UniformInstance u = tiny_uniform(4, 12, 3, 3);
  const double eps = 0.5;
  const double T = uniform_lower_bound(u) * 3.0;
  const SimplifiedInstance s = simplify_instance(u, T, eps);
  const double vmin = *std::min_element(s.instance.speed.begin(),
                                        s.instance.speed.end());
  const GroupStructure groups(eps, vmin, T);
  const RelaxedDpResult dp =
      solve_relaxed_dp(s.instance, groups, PtasOptions{}.max_states);
  ASSERT_EQ(dp.status, DpStatus::kFeasible);
  const Schedule rec = reconstruct_schedule(s.instance, groups, dp.relaxed);
  EXPECT_TRUE(rec.complete());
  EXPECT_FALSE(schedule_error(s.instance.to_unrelated(), rec).has_value());
}

TEST(Ptas, ResultAtLeastLowerBoundAndBeatsNothing) {
  const UniformInstance u = tiny_uniform(5);
  PtasOptions opt;
  opt.epsilon = 0.5;
  const PtasResult r = ptas_uniform(u, opt);
  EXPECT_FALSE(schedule_error(u.to_unrelated(), r.schedule).has_value());
  EXPECT_GE(r.makespan + 1e-9, uniform_lower_bound(u));
  // probes may legitimately be 0 when LPT already matches the lower bound
  // within (1 + eps); the schedule must still be valid (checked above).
}

class PtasVsExactTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PtasVsExactTest, CompletenessNeverRejectsOptimalGuess) {
  // Soundness of the dual test: the DP must accept T = OPT (after the
  // simplification inflation), i.e. the PTAS's certified lower bound is a
  // true lower bound on OPT.
  const UniformInstance u = tiny_uniform(GetParam(), 8, 3, 2);
  const ExactResult opt = solve_exact(u);
  ASSERT_TRUE(opt.proven_optimal);
  PtasOptions popt;
  popt.epsilon = 0.5;
  const PtasResult r = ptas_uniform(u, popt);
  EXPECT_FALSE(r.resource_limited) << "seed " << GetParam();
  EXPECT_LE(r.lower_bound, opt.makespan * (1 + 1e-9)) << "seed " << GetParam();
  EXPECT_GE(r.makespan + 1e-9, opt.makespan);  // no schedule beats OPT
}

INSTANTIATE_TEST_SUITE_P(Seeds, PtasVsExactTest,
                         ::testing::Range<std::uint64_t>(0, 12));

class PtasRatioTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PtasRatioTest, EmpiricalRatioModest) {
  const UniformInstance u = tiny_uniform(GetParam() + 40, 9, 3, 3);
  const ExactResult opt = solve_exact(u);
  ASSERT_TRUE(opt.proven_optimal);
  PtasOptions popt;
  popt.epsilon = 0.5;
  const PtasResult r = ptas_uniform(u, popt);
  // The worst-case chain of lemma factors at eps = 1/2 is large; empirically
  // the PTAS stays well below 2x optimal on these instances. Fixed seeds
  // keep this deterministic.
  EXPECT_LE(r.makespan, 2.0 * opt.makespan + 1e-9) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PtasRatioTest,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(Ptas, SmallerEpsilonNoWorse) {
  const UniformInstance u = tiny_uniform(77, 8, 2, 2);
  PtasOptions coarse;
  coarse.epsilon = 0.5;
  PtasOptions fine;
  fine.epsilon = 0.25;
  fine.max_states = 800'000;
  const PtasResult rc = ptas_uniform(u, coarse);
  const PtasResult rf = ptas_uniform(u, fine);
  if (!rf.resource_limited) {
    // Finer eps probes a denser T grid; its accepted schedule should not be
    // meaningfully worse.
    EXPECT_LE(rf.makespan, rc.makespan * 1.25 + 1e-9);
  }
}

TEST(Ptas, RejectsNonPositiveEpsilon) {
  const UniformInstance u = tiny_uniform(5);
  for (const double epsilon : {0.0, -1.0, std::nan("")}) {
    PtasOptions opt;
    opt.epsilon = epsilon;
    EXPECT_THROW((void)ptas_uniform(u, opt), CheckError) << epsilon;
  }
}

TEST(Ptas, LowerBoundBelowAccepted) {
  const UniformInstance u = tiny_uniform(6);
  const PtasResult r = ptas_uniform(u);
  if (r.lower_bound > 0.0) {
    EXPECT_LE(r.lower_bound, r.accepted_T * (1 + 1e-9));
  }
}

}  // namespace
}  // namespace setsched
