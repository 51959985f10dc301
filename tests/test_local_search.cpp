#include <gtest/gtest.h>

#include "core/bounds.h"
#include "core/generators.h"
#include "core/schedule.h"
#include "exact/branch_bound.h"
#include "improve/local_search.h"
#include "unrelated/greedy.h"

namespace setsched {
namespace {

TEST(LocalSearch, NeverWorsens) {
  UnrelatedGenParams p;
  p.num_jobs = 24;
  p.num_machines = 4;
  p.num_classes = 4;
  const Instance inst = generate_unrelated(p, 1);
  const ScheduleResult start = greedy_min_load(inst);
  const LocalSearchResult r = local_search(inst, start.schedule);
  EXPECT_LE(r.makespan, start.makespan + 1e-9);
  EXPECT_FALSE(schedule_error(inst, r.schedule).has_value());
}

TEST(LocalSearch, FixesObviouslyBadSchedule) {
  // Everything dumped on machine 0; moves must spread the load.
  UnrelatedGenParams p;
  p.num_jobs = 16;
  p.num_machines = 4;
  p.num_classes = 2;
  const Instance inst = generate_unrelated(p, 2);
  Schedule bad{std::vector<MachineId>(16, 0)};
  const double before = makespan(inst, bad);
  const LocalSearchResult r = local_search(inst, bad);
  EXPECT_LT(r.makespan, before);
  EXPECT_GT(r.moves_applied, 0u);
}

TEST(LocalSearch, RespectsEligibility) {
  UnrelatedGenParams p;
  p.num_jobs = 20;
  p.num_machines = 5;
  p.num_classes = 3;
  p.eligibility = 0.5;
  const Instance inst = generate_unrelated(p, 3);
  const ScheduleResult start = greedy_min_load(inst);
  const LocalSearchResult r = local_search(inst, start.schedule);
  EXPECT_FALSE(schedule_error(inst, r.schedule).has_value());
}

TEST(LocalSearch, ReachesOptimumOnEasyInstance) {
  // 4 equal jobs, 2 identical machines, independent classes: OPT splits 2/2.
  Instance inst(2, 4, {0, 1, 2, 3});
  for (MachineId i = 0; i < 2; ++i) {
    for (JobId j = 0; j < 4; ++j) inst.set_proc(i, j, 5);
    for (ClassId k = 0; k < 4; ++k) inst.set_setup(i, k, 1);
  }
  Schedule bad{{0, 0, 0, 0}};
  const LocalSearchResult r = local_search(inst, bad);
  EXPECT_DOUBLE_EQ(r.makespan, 12.0);  // 2 jobs + 2 setups per machine
}

TEST(LocalSearch, SwapEscapesMovePlateaus) {
  // Two machines; loads (10+2, 10+2) achievable only by exchanging jobs.
  Instance inst(2, 1, {0, 0, 0, 0});
  inst.set_setup(0, 0, 0);
  inst.set_setup(1, 0, 0);
  // sizes 10, 2 on one machine and 6, 6 on the other -> swap balances.
  const double sizes[] = {10, 2, 6, 6};
  for (JobId j = 0; j < 4; ++j) {
    inst.set_proc(0, j, sizes[j]);
    inst.set_proc(1, j, sizes[j]);
  }
  Schedule start{{0, 0, 1, 1}};
  const LocalSearchResult r = local_search(inst, start);
  EXPECT_DOUBLE_EQ(r.makespan, 12.0);
}

class LocalSearchQualityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalSearchQualityTest, WithinFactorTwoOfExactOnSmall) {
  UnrelatedGenParams p;
  p.num_jobs = 10;
  p.num_machines = 3;
  p.num_classes = 3;
  const Instance inst = generate_unrelated(p, GetParam() + 60);
  const ExactResult opt = solve_exact(inst);
  ASSERT_TRUE(opt.proven_optimal);
  const ScheduleResult start = greedy_min_load(inst);
  const LocalSearchResult r = local_search(inst, start.schedule);
  EXPECT_LE(r.makespan, 2.0 * opt.makespan + 1e-9) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalSearchQualityTest,
                         ::testing::Range<std::uint64_t>(0, 15));

// polished_start (exact/branch_bound.h), the prove start of `exact` and of
// the dive-then-prove chain, is never worse than its seed or the
// `local-search` solver's schedule, and returns that schedule unseeded.
TEST(PolishedStart, NeverWorseThanSeedOrLocalSearch) {
  UnrelatedGenParams p;
  p.num_jobs = 16;
  p.num_machines = 4;
  p.num_classes = 4;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance inst = generate_unrelated(p, seed);
    const LocalSearchResult from_greedy =
        local_search(inst, greedy_min_load(inst).schedule);
    EXPECT_EQ(polished_start(inst).assignment, from_greedy.schedule.assignment);
    const Schedule seeds[] = {
        Schedule{std::vector<MachineId>(p.num_jobs, 0)},
        greedy_min_load(inst).schedule,
        solve_exact(inst).schedule,
    };
    for (const Schedule& start : seeds) {
      const Schedule s = polished_start(inst, start);
      EXPECT_FALSE(schedule_error(inst, s).has_value()) << "seed " << seed;
      EXPECT_LE(makespan(inst, s), makespan(inst, start) + 1e-9);
      EXPECT_LE(makespan(inst, s), from_greedy.makespan + 1e-9);
    }
  }
}

// A seed that ties the `local-search` schedule is kept, so the chain's
// prove phase starts from its dive's schedule whenever polishing buys
// nothing (the golden sweeps' chain rows depend on that order).
TEST(PolishedStart, TieKeepsSeed) {
  // Two identical machines, four equal jobs of distinct classes: OPT 12.
  Instance inst(2, 4, {0, 1, 2, 3});
  for (MachineId i = 0; i < 2; ++i) {
    for (JobId j = 0; j < 4; ++j) inst.set_proc(i, j, 5);
    for (ClassId k = 0; k < 4; ++k) inst.set_setup(i, k, 1);
  }
  const Schedule from_greedy = polished_start(inst);
  ASSERT_DOUBLE_EQ(makespan(inst, from_greedy), 12.0);
  // The mirror image swaps the machines: same makespan, other assignment.
  Schedule mirror = from_greedy;
  for (MachineId& i : mirror.assignment) i = 1u - i;
  ASSERT_NE(mirror.assignment, from_greedy.assignment);
  EXPECT_EQ(polished_start(inst, mirror).assignment, mirror.assignment);
}

TEST(LocalSearch, RejectsIncompleteSchedule) {
  UnrelatedGenParams p;
  const Instance inst = generate_unrelated(p, 5);
  const Schedule incomplete = Schedule::empty(inst.num_jobs());
  EXPECT_THROW((void)local_search(inst, incomplete), CheckError);
}

}  // namespace
}  // namespace setsched
