#include <gtest/gtest.h>

#include "core/generators.h"
#include "unrelated/greedy.h"

namespace setsched {
namespace {

TEST(GreedyMinLoad, ValidSchedule) {
  UnrelatedGenParams p;
  p.num_jobs = 30;
  p.num_machines = 5;
  p.num_classes = 4;
  p.eligibility = 0.7;
  const Instance inst = generate_unrelated(p, 1);
  const ScheduleResult r = greedy_min_load(inst);
  EXPECT_FALSE(schedule_error(inst, r.schedule).has_value());
  EXPECT_NEAR(r.makespan, makespan(inst, r.schedule), 1e-9);
}

TEST(GreedyMinLoad, BalancesTrivialInstance) {
  // 4 unit jobs of one class, 2 identical machines, no setups: 2 each.
  Instance inst(2, 1, {0, 0, 0, 0});
  for (MachineId i = 0; i < 2; ++i) {
    for (JobId j = 0; j < 4; ++j) inst.set_proc(i, j, 1);
    inst.set_setup(i, 0, 0);
  }
  const ScheduleResult r = greedy_min_load(inst);
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
}

TEST(GreedyMinLoad, SpreadsOneClassWhenSetupsFree) {
  // Zero setups and one giant class: the class is spread evenly.
  Instance inst(4, 1, std::vector<ClassId>(16, 0));
  for (MachineId i = 0; i < 4; ++i) {
    for (JobId j = 0; j < 16; ++j) inst.set_proc(i, j, 1);
    inst.set_setup(i, 0, 0);
  }
  const ScheduleResult spread = greedy_min_load(inst);
  EXPECT_DOUBLE_EQ(spread.makespan, 4.0);
}

class GreedyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyPropertyTest, ProducesValidSchedules) {
  UnrelatedGenParams p;
  p.num_jobs = 25 + (GetParam() % 3) * 10;
  p.num_machines = 3 + GetParam() % 4;
  p.num_classes = 2 + GetParam() % 5;
  p.eligibility = GetParam() % 2 == 0 ? 1.0 : 0.6;
  const Instance inst = generate_unrelated(p, GetParam());
  const ScheduleResult a = greedy_min_load(inst);
  EXPECT_FALSE(schedule_error(inst, a.schedule).has_value());
  EXPECT_GT(a.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace setsched
