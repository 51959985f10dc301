// Cross-module integration suite: every algorithm is run against common
// instances and checked for mutual consistency — valid schedules, correct
// relative ordering against the exact optimum, and lower bounds that really
// bound everything from below.

#include <gtest/gtest.h>

#include "colgen/config_lp.h"
#include "core/bounds.h"
#include "core/generators.h"
#include "core/io.h"
#include "exact/branch_bound.h"
#include "improve/local_search.h"
#include "restricted/approx.h"
#include "uniform/lpt.h"
#include "uniform/ptas.h"
#include "unrelated/greedy.h"
#include "unrelated/rounding.h"

namespace setsched {
namespace {

class UnrelatedPipelineTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnrelatedPipelineTest, AllAlgorithmsConsistent) {
  UnrelatedGenParams p;
  p.num_jobs = 10;
  p.num_machines = 3;
  p.num_classes = 3;
  p.eligibility = 0.9;
  const Instance inst = generate_unrelated(p, GetParam());

  const ExactResult opt = solve_exact(inst);
  ASSERT_TRUE(opt.proven_optimal);

  RoundingOptions ropt;
  ropt.seed = GetParam() + 1;
  const RoundingResult rounding = randomized_rounding(inst, ropt);
  const ScheduleResult greedy = greedy_min_load(inst);

  // Everything is a valid schedule and no algorithm beats the optimum.
  for (const Schedule& s : {rounding.schedule, greedy.schedule, opt.schedule}) {
    EXPECT_FALSE(schedule_error(inst, s).has_value());
    EXPECT_GE(makespan(inst, s) + 1e-9, opt.makespan);
  }

  // The LP lower bound bounds the optimum from below.
  EXPECT_LE(rounding.lp_lower_bound, opt.makespan + 1e-9);
  // ... as does the trivial bound.
  EXPECT_LE(unrelated_lower_bound(inst), opt.makespan + 1e-9);

  // Local search improves (or keeps) everything and stays valid.
  for (const Schedule& s : {rounding.schedule, greedy.schedule}) {
    const LocalSearchResult ls = local_search(inst, s);
    EXPECT_LE(ls.makespan, makespan(inst, s) + 1e-9);
    EXPECT_GE(ls.makespan + 1e-9, opt.makespan);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnrelatedPipelineTest,
                         ::testing::Range<std::uint64_t>(0, 10));

class UniformPipelineTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UniformPipelineTest, UniformAlgorithmsConsistent) {
  UniformGenParams p;
  p.num_jobs = 9;
  p.num_machines = 3;
  p.num_classes = 3;
  const UniformInstance u = generate_uniform(p, GetParam());
  const Instance inst = u.to_unrelated();

  const ExactResult opt = solve_exact(inst);
  ASSERT_TRUE(opt.proven_optimal);

  const ScheduleResult lpt = lpt_with_placeholders(u);
  PtasOptions popt;
  popt.epsilon = 0.5;
  const PtasResult ptas = ptas_uniform(u, popt);

  EXPECT_GE(lpt.makespan + 1e-9, opt.makespan);
  EXPECT_GE(ptas.makespan + 1e-9, opt.makespan);
  EXPECT_LE(ptas.makespan, lpt.makespan + 1e-9);  // PTAS starts from LPT
  EXPECT_LE(lpt.makespan, kLptSetupFactor * opt.makespan + 1e-9);
  if (!ptas.resource_limited && ptas.lower_bound > 0.0) {
    EXPECT_LE(ptas.lower_bound, opt.makespan * (1 + 1e-9));
  }

  // The uniform algorithms agree with the unrelated view of the instance.
  EXPECT_NEAR(makespan(u, lpt.schedule), makespan(inst, lpt.schedule), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniformPipelineTest,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(IntegrationIo, InstanceSurvivesFileRoundTripThroughAlgorithms) {
  UnrelatedGenParams p;
  p.num_jobs = 12;
  p.num_machines = 3;
  p.num_classes = 3;
  const Instance inst = generate_unrelated(p, 5);
  std::stringstream ss;
  save_instance(ss, inst);
  const Instance back = load_instance(ss);
  // Identical instances yield identical deterministic algorithm output.
  const ScheduleResult a = greedy_min_load(inst);
  const ScheduleResult b = greedy_min_load(back);
  EXPECT_EQ(a.schedule, b.schedule);
  RoundingOptions ropt;
  ropt.seed = 7;
  EXPECT_DOUBLE_EQ(randomized_rounding(inst, ropt).makespan,
                   randomized_rounding(back, ropt).makespan);
}

TEST(IntegrationSpecialCases, TwoApproxNeverWorseThanThreeApproxBound) {
  // An instance that is BOTH restricted-class-uniform and class-uniform in
  // processing (one job size per class): both theorems apply; both must hold.
  RestrictedGenParams p;
  p.num_jobs = 20;
  p.num_machines = 5;
  p.num_classes = 4;
  p.min_eligible = 5;  // all machines eligible -> also class-uniform proc
  p.max_eligible = 5;
  Instance inst = generate_restricted_class_uniform(p, 3);
  // Make processing class-uniform: overwrite each job's size by its class's.
  const auto by_class = inst.jobs_by_class();
  for (ClassId k = 0; k < inst.num_classes(); ++k) {
    if (by_class[k].empty()) continue;
    const double size = inst.proc(0, by_class[k].front());
    for (const JobId j : by_class[k]) {
      for (MachineId i = 0; i < inst.num_machines(); ++i) {
        inst.set_proc(i, j, size);
      }
    }
  }
  ASSERT_TRUE(is_restricted_class_uniform(inst));
  ASSERT_TRUE(is_class_uniform_processing(inst));
  const ConstantApproxResult two = two_approx_restricted(inst, 0.02);
  const ConstantApproxResult three = three_approx_class_uniform(inst, 0.02);
  EXPECT_LE(two.makespan, 2.0 * two.lp_T + 1e-6);
  EXPECT_LE(three.makespan, 3.0 * three.lp_T + 1e-6);
}

TEST(IntegrationColgen, ConfigAndDirectAgreeOnFeasibilityWindow) {
  UnrelatedGenParams p;
  p.num_jobs = 12;
  p.num_machines = 3;
  p.num_classes = 3;
  const Instance inst = generate_unrelated(p, 9);
  const LpSearchResult direct = search_assignment_lp(inst, 0.05);
  // The config LP is a stronger relaxation solved on a conservative grid;
  // its feasible T cannot be much below the direct LP's window.
  const ConfigLpResult cfg = solve_config_lp(inst, direct.lower_bound * 0.8);
  EXPECT_NE(cfg.status, ConfigLpStatus::kFeasible);
}

}  // namespace
}  // namespace setsched
