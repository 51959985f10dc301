#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/prng.h"
#include "core/bounds.h"
#include "core/generators.h"
#include "core/schedule.h"
#include "exact/branch_bound.h"
#include "exact/lp_bound.h"
#include "exact/tolerances.h"
#include "improve/local_search.h"
#include "unrelated/greedy.h"

namespace setsched {
namespace {

TEST(Exact, SingleJobSingleMachine) {
  Instance inst(1, 1, {0});
  inst.set_proc(0, 0, 5);
  inst.set_setup(0, 0, 3);
  const ExactResult r = solve_exact(inst);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_DOUBLE_EQ(r.makespan, 8.0);
  EXPECT_DOUBLE_EQ(r.lower_bound, 8.0);
  EXPECT_DOUBLE_EQ(r.gap, 0.0);
}

TEST(Exact, PrefersSplittingAcrossMachines) {
  // Two identical machines, two independent classes: split is optimal.
  Instance inst(2, 2, {0, 1});
  for (MachineId i = 0; i < 2; ++i) {
    inst.set_proc(i, 0, 4);
    inst.set_proc(i, 1, 4);
    inst.set_setup(i, 0, 1);
    inst.set_setup(i, 1, 1);
  }
  const ExactResult r = solve_exact(inst);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_DOUBLE_EQ(r.makespan, 5.0);
  EXPECT_NE(r.schedule.assignment[0], r.schedule.assignment[1]);
}

TEST(Exact, BatchingBeatsSplittingWithHugeSetups) {
  // Class 0 has a huge setup and two jobs; class 1 occupies the other
  // machine. Splitting class 0 would pay the 100-setup twice on top of the
  // class-1 work: batching it on one machine is optimal (makespan 104).
  Instance inst(2, 2, {0, 0, 1});
  for (MachineId i = 0; i < 2; ++i) {
    inst.set_proc(i, 0, 2);
    inst.set_proc(i, 1, 2);
    inst.set_proc(i, 2, 50);
    inst.set_setup(i, 0, 100);
    inst.set_setup(i, 1, 1);
  }
  const ExactResult r = solve_exact(inst);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_DOUBLE_EQ(r.makespan, 104.0);
  EXPECT_EQ(r.schedule.assignment[0], r.schedule.assignment[1]);
  EXPECT_NE(r.schedule.assignment[2], r.schedule.assignment[0]);
}

TEST(Exact, RespectsEligibility) {
  Instance inst(2, 1, {0, 0});
  inst.set_proc(0, 0, 1);
  inst.set_proc(1, 0, kInfinity);
  inst.set_proc(0, 1, kInfinity);
  inst.set_proc(1, 1, 1);
  inst.set_setup(0, 0, 1);
  inst.set_setup(1, 0, 1);
  const ExactResult r = solve_exact(inst);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.schedule.assignment[0], 0u);
  EXPECT_EQ(r.schedule.assignment[1], 1u);
}

TEST(Exact, ProvesOptimalInitialSchedule) {
  Instance inst(1, 1, {0, 0});
  inst.set_proc(0, 0, 2);
  inst.set_proc(0, 1, 3);
  inst.set_setup(0, 0, 1);
  ExactOptions opt;
  opt.initial_schedule = Schedule{{0, 0}};  // exactly optimal (6)
  const ExactResult r = solve_exact(inst, opt);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
}

// A seed equal to OPT is the incumbent the search must keep: the cutoff sits
// a hair below it, so no optimal schedule is re-found, and the search must
// return the seed itself, not the strictly worse greedy incumbent.
TEST(Exact, OptimalInitialScheduleIsKept) {
  // best_machine_schedule puts both jobs on machine 0 (4+1 < 5+1 per job)
  // for makespan 9; the optimum splits them for makespan 6.
  Instance inst(2, 1, {0, 0});
  for (JobId j = 0; j < 2; ++j) {
    inst.set_proc(0, j, 4);
    inst.set_proc(1, j, 5);
  }
  inst.set_setup(0, 0, 1);
  inst.set_setup(1, 0, 1);
  ASSERT_DOUBLE_EQ(makespan(inst, best_machine_schedule(inst)), 9.0);

  for (const bool lp : {false, true}) {
    ExactOptions opt;
    opt.use_lp_bounds = lp;
    opt.initial_schedule = Schedule{{0, 1}};  // == OPT: must be returned
    const ExactResult r = solve_exact(inst, opt);
    EXPECT_TRUE(r.proven_optimal) << "lp=" << lp;
    EXPECT_DOUBLE_EQ(r.makespan, 6.0) << "lp=" << lp;
    // The returned schedule must actually meet the reported makespan (the
    // old bug returned the greedy schedule with makespan 9 here).
    EXPECT_NEAR(makespan(inst, r.schedule), r.makespan, 1e-12) << "lp=" << lp;
    EXPECT_LE(r.makespan, makespan(inst, *opt.initial_schedule) + 1e-9)
        << "lp=" << lp;
  }
}

TEST(Exact, UniformOverloadMatchesUnrelated) {
  UniformGenParams p;
  p.num_jobs = 8;
  p.num_machines = 3;
  p.num_classes = 2;
  const UniformInstance u = generate_uniform(p, 77);
  const ExactResult a = solve_exact(u);
  const ExactResult b = solve_exact(u.to_unrelated());
  EXPECT_TRUE(a.proven_optimal);
  EXPECT_NEAR(a.makespan, b.makespan, 1e-9);
}

ExactOptions no_lp_options() {
  ExactOptions opt;
  opt.use_lp_bounds = false;
  return opt;
}

TEST(Exact, NodeBudgetAborts) {
  UnrelatedGenParams p;
  p.num_jobs = 14;
  p.num_machines = 4;
  p.num_classes = 5;
  const Instance inst = generate_unrelated(p, 5);
  ExactOptions opt = no_lp_options();
  opt.max_nodes = 10;
  const ExactResult r = solve_exact(inst, opt);
  EXPECT_FALSE(r.proven_optimal);
  EXPECT_LE(r.nodes, 10u);
  // Still returns a feasible schedule (the greedy incumbent) with a
  // certified gap against the combinatorial lower bound.
  EXPECT_FALSE(schedule_error(inst, r.schedule).has_value());
  EXPECT_GT(r.gap, 0.0);
  EXPECT_TRUE(std::isfinite(r.gap));
  EXPECT_GE(r.makespan, r.lower_bound);
}

// A one-node budget is the extreme abort path: the result must be the
// incumbent with proven_optimal == false and a finite positive gap — never
// a silent claim of ground truth.
TEST(Exact, OneNodeBudgetReportsGapNotOptimality) {
  UnrelatedGenParams p;
  p.num_jobs = 14;
  p.num_machines = 4;
  p.num_classes = 5;
  const Instance inst = generate_unrelated(p, 5);
  for (const bool lp : {false, true}) {
    ExactOptions opt;
    opt.use_lp_bounds = lp;
    opt.max_nodes = 1;
    const ExactResult r = solve_exact(inst, opt);
    EXPECT_FALSE(r.proven_optimal) << "lp=" << lp;
    EXPECT_GT(r.gap, 0.0) << "lp=" << lp;
    EXPECT_TRUE(std::isfinite(r.gap)) << "lp=" << lp;
    EXPECT_FALSE(schedule_error(inst, r.schedule).has_value());
  }
}

// Regression for the off-by-one budget check: a tree fully explored at
// EXACTLY max_nodes nodes used to be flagged aborted. Only a search that
// actually stops early may clear proven_optimal.
TEST(Exact, ExactlyExhaustedBudgetStaysProven) {
  UnrelatedGenParams p;
  p.num_jobs = 9;
  p.num_machines = 3;
  p.num_classes = 3;
  const Instance inst = generate_unrelated(p, 7);
  const ExactResult full = solve_exact(inst, no_lp_options());
  ASSERT_TRUE(full.proven_optimal);
  ASSERT_GT(full.nodes, 1u);

  ExactOptions exact_budget = no_lp_options();
  exact_budget.max_nodes = full.nodes;
  const ExactResult at_budget = solve_exact(inst, exact_budget);
  EXPECT_TRUE(at_budget.proven_optimal);
  EXPECT_EQ(at_budget.nodes, full.nodes);
  EXPECT_DOUBLE_EQ(at_budget.makespan, full.makespan);

  ExactOptions too_small = no_lp_options();
  too_small.max_nodes = full.nodes - 1;
  const ExactResult truncated = solve_exact(inst, too_small);
  EXPECT_FALSE(truncated.proven_optimal);
}

/// Reference: plain exhaustive enumeration, no pruning.
double enumerate_opt(const Instance& inst) {
  const std::size_t n = inst.num_jobs();
  const std::size_t m = inst.num_machines();
  Schedule s = Schedule::empty(n);
  double best = kInfinity;
  const auto recurse = [&](auto&& self, std::size_t depth) -> void {
    if (depth == n) {
      if (!schedule_error(inst, s).has_value()) {
        best = std::min(best, makespan(inst, s));
      }
      return;
    }
    for (MachineId i = 0; i < m; ++i) {
      if (!inst.eligible(i, depth)) continue;
      s.assignment[depth] = i;
      self(self, depth + 1);
      s.assignment[depth] = kUnassigned;
    }
  };
  recurse(recurse, 0);
  return best;
}

/// Differential contract shared by every randomized suite below: both LP
/// configurations must reproduce brute force exactly and report a coherent
/// certificate.
void expect_matches_enumeration(const Instance& inst, std::uint64_t seed) {
  const double reference = enumerate_opt(inst);
  for (const bool lp : {false, true}) {
    ExactOptions opt;
    opt.use_lp_bounds = lp;
    const ExactResult r = solve_exact(inst, opt);
    EXPECT_TRUE(r.proven_optimal) << "seed " << seed << " lp " << lp;
    EXPECT_NEAR(r.makespan, reference, 1e-9) << "seed " << seed << " lp " << lp;
    EXPECT_FALSE(schedule_error(inst, r.schedule).has_value());
    EXPECT_NEAR(makespan(inst, r.schedule), r.makespan, 1e-9);
    EXPECT_DOUBLE_EQ(r.gap, 0.0);
    EXPECT_NEAR(r.lower_bound, r.makespan, 1e-9);
  }
}

class ExactRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactRandomTest, MatchesExhaustiveEnumeration) {
  UnrelatedGenParams p;
  p.num_jobs = 7;
  p.num_machines = 3;
  p.num_classes = 3;
  p.eligibility = 0.8;
  expect_matches_enumeration(generate_unrelated(p, GetParam()), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactRandomTest,
                         ::testing::Range<std::uint64_t>(0, 25));

class ExactHolesRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

// Aggressive eligibility holes (each job still has one machine by the
// generator contract): pruning and symmetry breaking must stay sound when
// machines are not interchangeable for every job.
TEST_P(ExactHolesRandomTest, MatchesEnumerationWithEligibilityHoles) {
  UnrelatedGenParams p;
  p.num_jobs = 9;
  p.num_machines = 3;
  p.num_classes = 4;
  p.eligibility = 0.5;
  expect_matches_enumeration(generate_unrelated(p, GetParam() + 100),
                             GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactHolesRandomTest,
                         ::testing::Range<std::uint64_t>(0, 15));

class ExactZeroSetupRandomTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// Zero setup times degenerate the problem to plain R||Cmax; the setup-aware
// pruning (class_on bookkeeping, paid-setup dominance) must not break.
TEST_P(ExactZeroSetupRandomTest, MatchesEnumerationWithZeroSetups) {
  UnrelatedGenParams p;
  p.num_jobs = 8;
  p.num_machines = 3;
  p.num_classes = 2;
  p.min_setup = 0.0;
  p.max_setup = 0.0;
  expect_matches_enumeration(generate_unrelated(p, GetParam() + 300),
                             GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactZeroSetupRandomTest,
                         ::testing::Range<std::uint64_t>(0, 15));

class ExactUniformRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactUniformRandomTest, OptimalAtLeastLowerBound) {
  UniformGenParams p;
  p.num_jobs = 10;
  p.num_machines = 3;
  p.num_classes = 3;
  const UniformInstance u = generate_uniform(p, GetParam() + 500);
  const ExactResult r = solve_exact(u);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_GE(r.makespan + 1e-9, uniform_lower_bound(u)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactUniformRandomTest,
                         ::testing::Range<std::uint64_t>(0, 15));

TEST(Exact, SymmetryBreakingStillOptimal) {
  // 4 identical machines: symmetry breaking must not lose the optimum.
  UniformGenParams p;
  p.num_jobs = 9;
  p.num_machines = 4;
  p.num_classes = 2;
  p.profile = SpeedProfile::kIdentical;
  const UniformInstance u = generate_uniform(p, 31);
  const Instance inst = u.to_unrelated();
  const double reference = enumerate_opt(inst);
  const ExactResult r = solve_exact(inst);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_NEAR(r.makespan, reference, 1e-9);
}

// Acceptance pin: on an n=14 unrelated instance the LP-bounded search must
// close the tree with >= 5x fewer nodes than the seed-equivalent
// configuration (DFS with combinatorial bounds only, no memo), at the same
// optimum. This is the instance class the seed solver could not close
// within small node budgets.
TEST(Exact, LpBoundsCutNodesAtLeastFiveFold) {
  UnrelatedGenParams p;
  p.num_jobs = 14;
  p.num_machines = 4;
  p.num_classes = 5;
  const Instance inst = generate_unrelated(p, 23);

  ExactOptions seed_like = no_lp_options();
  seed_like.memo_limit = 0;
  const ExactResult plain = solve_exact(inst, seed_like);

  ExactOptions lp_bounded;
  lp_bounded.lp_bound_depth = 14;
  const ExactResult bounded = solve_exact(inst, lp_bounded);

  ASSERT_TRUE(plain.proven_optimal);
  ASSERT_TRUE(bounded.proven_optimal);
  EXPECT_NEAR(plain.makespan, bounded.makespan, 1e-9);
  EXPECT_GT(bounded.lp_bounds_used, 0u);
  EXPECT_GE(plain.nodes, 5 * bounded.nodes)
      << "plain " << plain.nodes << " vs lp " << bounded.nodes;
}

// Reduced-cost fixing (always on with LP bounds) must never exclude the
// optimum: the search proves the brute-force optimum on aggressive
// eligibility holes, where an unsound exclusion would show immediately.
TEST(Exact, ReducedCostFixingNeverExcludesTheOptimum) {
  UnrelatedGenParams p;
  p.num_jobs = 9;
  p.num_machines = 3;
  p.num_classes = 4;
  p.eligibility = 0.6;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const Instance inst = generate_unrelated(p, seed + 900);
    const double reference = enumerate_opt(inst);
    const ExactResult on = solve_exact(inst);
    ASSERT_TRUE(on.proven_optimal) << "seed " << seed;
    EXPECT_NEAR(on.makespan, reference, 1e-9) << "seed " << seed;
    EXPECT_FALSE(schedule_error(inst, on.schedule).has_value());
  }
}

// The new LP-substrate counters must actually fire on an instance the LP
// bounder works hard on: node probes are dual re-optimizations of one
// parametric model, and reduced-cost fixing excludes pairs along the way.
TEST(Exact, LpBoundsReportDualSolvesAndFixedVars) {
  UnrelatedGenParams p;
  p.num_jobs = 14;
  p.num_machines = 4;
  p.num_classes = 5;
  const Instance inst = generate_unrelated(p, 23);
  ExactOptions opt;
  opt.lp_bound_depth = 14;
  const ExactResult r = solve_exact(inst, opt);
  ASSERT_TRUE(r.proven_optimal);
  EXPECT_GT(r.lp_bounds_used, 0u);
  EXPECT_GT(r.lp_dual_solves, 0u)
      << "min-T node probes must re-optimize dually";
  EXPECT_LE(r.lp_dual_solves, r.lp_bounds_used);
  EXPECT_GT(r.fixed_vars, 0u) << "no pair was ever reduced-cost-fixed";
}

// The bounder's warm chain against cold rebuilds: down a random pin path,
// every probe of the one re-parameterized model agrees with a fresh bounder
// holding the same pins; backing up, each scope's reduced-cost fixes are
// undone, and the unpinned model re-solves to the first root value.
TEST(LpBounder, WarmPinPathMatchesFreshBoundersAndUnwinds) {
  UnrelatedGenParams p;
  p.num_jobs = 10;
  p.num_machines = 3;
  p.num_classes = 4;
  p.eligibility = 0.8;
  std::size_t fixed_total = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const Instance inst = generate_unrelated(p, seed + 300);
    const double hi = unrelated_upper_bound(inst);
    exact::LpBounder warm(inst, hi, lp::SimplexOptions{});
    ASSERT_TRUE(warm.available());
    const double root = warm.root_lower_bound(0.0, hi);
    ASSERT_GT(root, 0.0) << "seed " << seed;
    const double probes[] = {std::min(root * 1.02, hi), hi};

    Xoshiro256 rng(seed);
    std::vector<JobId> order(inst.num_jobs());
    for (JobId j = 0; j < inst.num_jobs(); ++j) order[j] = j;
    for (std::size_t k = order.size(); k > 1; --k) {
      std::swap(order[k - 1], order[rng.next_below(k)]);
    }
    std::vector<std::pair<JobId, MachineId>> path;
    for (const JobId j : order) {
      std::vector<MachineId> machines;
      for (MachineId i = 0; i < inst.num_machines(); ++i) {
        if (inst.eligible(i, j)) machines.push_back(i);
      }
      const MachineId i = machines[rng.next_below(machines.size())];
      warm.pin(j, i);
      path.push_back({j, i});
      exact::LpBounder fresh(inst, hi, lp::SimplexOptions{});
      for (const auto& [pj, pi] : path) fresh.pin(pj, pi);
      for (const double T : probes) {
        EXPECT_EQ(warm.feasible(T), fresh.feasible(T))
            << "seed " << seed << " depth " << path.size() << " T " << T;
      }
    }

    std::vector<std::pair<JobId, MachineId>> undo;
    for (std::size_t depth = path.size(); depth-- > 0;) {
      if (warm.feasible(probes[0])) {
        const std::size_t fixed = warm.fix_dominated(probes[0], &undo);
        EXPECT_EQ(fixed, undo.size());
        fixed_total += fixed;
        for (const auto& [fj, fi] : undo) EXPECT_TRUE(warm.pair_fixed(fj, fi));
        warm.unfix(&undo, 0);
        EXPECT_TRUE(undo.empty());
      }
      warm.unpin(path[depth].first);
    }
    for (JobId j = 0; j < inst.num_jobs(); ++j) {
      for (MachineId i = 0; i < inst.num_machines(); ++i) {
        EXPECT_FALSE(warm.pair_fixed(j, i)) << "seed " << seed;
      }
    }
    EXPECT_NEAR(warm.root_lower_bound(0.0, hi), root, 1e-9 * root)
        << "seed " << seed;
  }
  EXPECT_GT(fixed_total, 0u) << "no scope ever fixed a pair";
}

TEST(ExactDive, FindsOptimumOnTinyInstancesAndProvesIt) {
  // With a beam wider than the full state space the dive is exhaustive, so
  // it must return the brute-force optimum and may claim proven_optimal.
  // The n = 10 cases fill levels past the dominance prefilter's scan cap.
  UnrelatedGenParams p;
  p.num_machines = 3;
  p.num_classes = 3;
  struct Case {
    std::size_t jobs;
    std::uint64_t seed;
  };
  std::vector<Case> cases;
  for (std::uint64_t seed = 0; seed < 5; ++seed) cases.push_back({7, seed});
  for (std::uint64_t seed = 40; seed < 46; ++seed) cases.push_back({10, seed});
  for (const Case& c : cases) {
    p.num_jobs = c.jobs;
    const Instance inst = generate_unrelated(p, c.seed);
    const double reference = enumerate_opt(inst);
    ExactOptions opt;
    opt.mode = ExactMode::kDive;
    opt.beam_width = 100000;
    const ExactResult r = solve_exact(inst, opt);
    EXPECT_TRUE(r.proven_optimal) << "n " << c.jobs << " seed " << c.seed;
    EXPECT_NEAR(r.makespan, reference, 1e-9)
        << "n " << c.jobs << " seed " << c.seed;
  }
}

TEST(ExactDive, MidSizeIncumbentCarriesCertifiedGap) {
  UnrelatedGenParams p;
  p.num_jobs = 40;
  p.num_machines = 6;
  p.num_classes = 8;
  p.eligibility = 0.85;
  p.correlated = true;
  const Instance inst = generate_unrelated(p, 1);
  ExactOptions opt;
  opt.mode = ExactMode::kDive;
  opt.time_limit_s = 10.0;
  const ExactResult r = solve_exact(inst, opt);
  EXPECT_FALSE(schedule_error(inst, r.schedule).has_value());
  EXPECT_NEAR(makespan(inst, r.schedule), r.makespan, 1e-9);
  EXPECT_GE(r.gap, 0.0);
  EXPECT_TRUE(std::isfinite(r.gap));
  EXPECT_GE(r.makespan, r.lower_bound * (1.0 - 1e-9));
  EXPECT_GE(r.lower_bound, unrelated_lower_bound(inst) * (1.0 - 1e-9));
  EXPECT_GT(r.nodes, 0u);
  // The dive must beat the trivial incumbent it starts from.
  EXPECT_LE(r.makespan, makespan(inst, best_machine_schedule(inst)) + 1e-9);
}

// The dive keeps an optimal seed as its incumbent: pruning against it must
// not drop the seed itself and return the greedy makespan 9.
TEST(ExactDive, ProvesOptimalInitialSchedule) {
  Instance inst(2, 1, {0, 0});
  for (JobId j = 0; j < 2; ++j) {
    inst.set_proc(0, j, 4);
    inst.set_proc(1, j, 5);
  }
  inst.set_setup(0, 0, 1);
  inst.set_setup(1, 0, 1);
  ExactOptions opt;
  opt.mode = ExactMode::kDive;
  opt.initial_schedule = Schedule{{0, 1}};  // == OPT
  const ExactResult r = solve_exact(inst, opt);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
  EXPECT_NEAR(makespan(inst, r.schedule), 6.0, 1e-12);
}

// A budget-starved dive seeded with a known schedule must never return a
// worse one: the initial_schedule is the incumbent the beam has to beat,
// not a hint it may drop (this is the contract the dive-then-prove chain's
// abort guarantee stands on).
TEST(ExactDive, AdoptsInitialScheduleUnderZeroNodeBudget) {
  UnrelatedGenParams p;
  p.num_jobs = 14;
  p.num_machines = 4;
  p.num_classes = 5;
  const Instance inst = generate_unrelated(p, 23);
  const ExactResult full = solve_exact(inst);
  ASSERT_TRUE(full.proven_optimal);

  ExactOptions opt;
  opt.mode = ExactMode::kDive;
  opt.max_nodes = 0;  // beam collapses to width 1 from the root
  opt.initial_schedule = full.schedule;
  const ExactResult r = solve_exact(inst, opt);
  EXPECT_NEAR(r.makespan, full.makespan, 1e-9);
  EXPECT_NEAR(makespan(inst, r.schedule), full.makespan, 1e-9);
}

TEST(ExactDive, RejectsInfeasibleInitialSchedule) {
  Instance inst(2, 1, {0, 0});
  inst.set_proc(0, 0, 1);
  inst.set_proc(1, 0, kInfinity);  // job 0 not eligible on machine 1
  inst.set_proc(0, 1, 1);
  inst.set_proc(1, 1, 1);
  inst.set_setup(0, 0, 1);
  inst.set_setup(1, 0, 1);
  Schedule bad = Schedule::empty(2);
  bad.assignment = {1, 1};
  for (const ExactMode mode :
       {ExactMode::kDive, ExactMode::kProve, ExactMode::kDiveThenProve}) {
    ExactOptions opt;
    opt.mode = mode;
    opt.initial_schedule = bad;
    EXPECT_THROW((void)solve_exact(inst, opt), CheckError);
  }
}

/// Hand-built level where the survivors exactly fit the beam and the only
/// overflow candidate is a duplicate state reached through two job orders:
/// machine columns are distinct (no machine symmetry), j0 is its own class,
/// j1/j2 are identical class-1 jobs. At the last level the beam {11,7} and
/// {17,0} both reach loads {17,7} with identical paid setups — a true
/// duplicate that sorts last.
Instance truncation_pin_instance() {
  Instance inst(2, 3, {0, 1, 1});
  inst.set_proc(0, 0, 10);
  inst.set_proc(1, 0, 20);
  for (JobId j = 1; j <= 2; ++j) {
    inst.set_proc(0, j, 4);
    inst.set_proc(1, j, 5);
  }
  for (MachineId i = 0; i < 2; ++i) {
    inst.set_setup(i, 0, 1);
    inst.set_setup(i, 1, 2);
  }
  return inst;
}

// Regression for the over-eager truncated flag: PR 5 declared the beam
// truncated the moment the kept set filled, BEFORE checking whether the
// overflowing candidate was dominated. A dominated (here: duplicate)
// overflow is redundant — dropping it loses nothing — so a beam whose width
// exactly fits the reachable survivors is still an exhaustive search and
// must keep its proven_optimal certificate.
TEST(ExactDive, ExactFitBeamWithDominatedOverflowStaysProven) {
  const Instance inst = truncation_pin_instance();
  ASSERT_DOUBLE_EQ(enumerate_opt(inst), 12.0);

  ExactOptions opt;
  opt.mode = ExactMode::kDive;
  opt.use_lp_bounds = false;  // keep the level trace free of fixed pairs
  opt.beam_width = 2;         // survivors per level: 1, 2, 2 — exact fit
  const ExactResult r = solve_exact(inst, opt);
  EXPECT_NEAR(r.makespan, 12.0, 1e-9);
  EXPECT_TRUE(r.proven_optimal)
      << "dominated overflow at an exactly-full beam flagged as truncation";

  // Control: width 1 genuinely drops a non-dominated state, and the
  // combinatorial lower bound sits below OPT — establishing that the width-2
  // certificate above can only come from search completeness, which is
  // exactly what the old flag destroyed.
  ExactOptions narrow = opt;
  narrow.beam_width = 1;
  const ExactResult t = solve_exact(inst, narrow);
  EXPECT_FALSE(t.proven_optimal);
  EXPECT_LT(t.lower_bound, 12.0 - 1e-9);
}

TEST(ExactDive, NeverClaimsOptimalityBelowTheBound) {
  // Dive on a hard mid-size instance: whatever it returns, a proven claim
  // must coincide with a zero gap and makespan == lower_bound.
  UnrelatedGenParams p;
  p.num_jobs = 30;
  p.num_machines = 5;
  p.num_classes = 6;
  const Instance inst = generate_unrelated(p, 9);
  ExactOptions opt;
  opt.mode = ExactMode::kDive;
  opt.beam_width = 64;
  const ExactResult r = solve_exact(inst, opt);
  if (r.proven_optimal) {
    EXPECT_DOUBLE_EQ(r.gap, 0.0);
    EXPECT_NEAR(r.makespan, r.lower_bound, 1e-9 * std::max(1.0, r.makespan));
  } else {
    EXPECT_GT(r.gap, 0.0);
  }
}

// A budget abort returns at least the seeded schedule: the search never
// falls back to the greedy incumbent once it holds a better one.
TEST(Exact, InitialScheduleSurvivesBudgetAbort) {
  UnrelatedGenParams p;
  p.num_jobs = 14;
  p.num_machines = 4;
  p.num_classes = 5;
  const Instance inst = generate_unrelated(p, 23);
  const ExactResult full = solve_exact(inst);
  ASSERT_TRUE(full.proven_optimal);
  const double greedy = makespan(inst, best_machine_schedule(inst));
  ASSERT_GT(greedy, full.makespan + 1e-9);

  ExactOptions opt;
  opt.max_nodes = 1;
  opt.initial_schedule = full.schedule;
  const ExactResult r = solve_exact(inst, opt);
  EXPECT_NEAR(r.makespan, full.makespan, 1e-9);
  EXPECT_NEAR(makespan(inst, r.schedule), full.makespan, 1e-9);
}

class DiveThenProveRandomTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// The chain is still ground truth: on small instances with eligibility holes
// it must reproduce brute force exactly, proven, with merged counters that
// at least account for the dive phase.
TEST_P(DiveThenProveRandomTest, MatchesEnumerationWithEligibilityHoles) {
  UnrelatedGenParams p;
  p.num_jobs = 9;
  p.num_machines = 3;
  p.num_classes = 4;
  p.eligibility = 0.5;
  const Instance inst = generate_unrelated(p, GetParam() + 100);
  const double reference = enumerate_opt(inst);
  ExactOptions opt;
  opt.mode = ExactMode::kDiveThenProve;
  const ExactResult r = solve_exact(inst, opt);
  EXPECT_TRUE(r.proven_optimal) << "seed " << GetParam();
  EXPECT_NEAR(r.makespan, reference, 1e-9) << "seed " << GetParam();
  EXPECT_FALSE(schedule_error(inst, r.schedule).has_value());
  EXPECT_DOUBLE_EQ(r.gap, 0.0);
  EXPECT_GT(r.nodes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiveThenProveRandomTest,
                         ::testing::Range<std::uint64_t>(0, 15));

// Zero setups (plain R||Cmax) through the chain: the dive's paid-setup
// dominance and the seeded prove must both stay sound when every setup
// degenerates to zero.
TEST(DiveThenProve, MatchesEnumerationWithZeroSetups) {
  UnrelatedGenParams p;
  p.num_jobs = 8;
  p.num_machines = 3;
  p.num_classes = 2;
  p.min_setup = 0.0;
  p.max_setup = 0.0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Instance inst = generate_unrelated(p, seed + 300);
    ExactOptions opt;
    opt.mode = ExactMode::kDiveThenProve;
    const ExactResult r = solve_exact(inst, opt);
    EXPECT_TRUE(r.proven_optimal) << "seed " << seed;
    EXPECT_NEAR(r.makespan, enumerate_opt(inst), 1e-9) << "seed " << seed;
  }
}

// Acceptance pin of this PR: seeding the prove pass with the dive's
// incumbent must close the pinned n=14 tree in at least 2x fewer DFS nodes
// than the PR 5 cold start — the whole point of chaining is that the cutoff
// (and with it reduced-cost fixing and the load cuts) bites from node 1.
// (Measured: cold 321 nodes vs seeded 132 on this instance; the chain mode
// itself additionally charges the dive's beam states to its node counter,
// so the prove-phase speedup is pinned on the seeded prove directly.)
TEST(DiveThenProve, SeededProveHalvesNodesOnPinnedFourteenJobInstance) {
  UnrelatedGenParams p;
  p.num_jobs = 14;
  p.num_machines = 4;
  p.num_classes = 5;
  const Instance inst = generate_unrelated(p, 23);

  const ExactResult cold = solve_exact(inst);  // PR 5 baseline configuration

  ExactOptions dive_opt;
  dive_opt.mode = ExactMode::kDive;
  const ExactResult dive = solve_exact(inst, dive_opt);

  ExactOptions seeded_opt;
  seeded_opt.initial_schedule = dive.schedule;
  const ExactResult seeded = solve_exact(inst, seeded_opt);

  ASSERT_TRUE(cold.proven_optimal);
  ASSERT_TRUE(seeded.proven_optimal);
  EXPECT_NEAR(seeded.makespan, cold.makespan, 1e-9);
  EXPECT_GE(cold.nodes, 2 * seeded.nodes)
      << "cold " << cold.nodes << " vs seeded " << seeded.nodes;

  // And the packaged chain reaches the same proven optimum end to end.
  ExactOptions chain;
  chain.mode = ExactMode::kDiveThenProve;
  const ExactResult chained = solve_exact(inst, chain);
  ASSERT_TRUE(chained.proven_optimal);
  EXPECT_NEAR(chained.makespan, cold.makespan, 1e-9);
}

// The budget-abort guarantee: however small the node budget, the chain never
// reports a schedule worse than what its own dive phase would produce under
// the same budget (the prove phase starts FROM that schedule; aborting it
// just returns the adopted incumbent).
TEST(DiveThenProve, BudgetAbortNeverWorseThanTheDivePhase) {
  UnrelatedGenParams p;
  p.num_jobs = 30;
  p.num_machines = 5;
  p.num_classes = 6;
  const Instance inst = generate_unrelated(p, 9);

  ExactOptions opt;
  opt.mode = ExactMode::kDiveThenProve;
  opt.max_nodes = 500;  // deterministic truncation: node cap, not wall clock
  opt.time_limit_s = 60.0;
  opt.dive_time_limit_s = 10.0;
  const ExactResult chained = solve_exact(inst, opt);

  ExactOptions dive_opt = opt;
  dive_opt.mode = ExactMode::kDive;
  dive_opt.time_limit_s = std::min(opt.dive_time_limit_s,
                                   0.5 * opt.time_limit_s);
  const ExactResult dive = solve_exact(inst, dive_opt);

  EXPECT_FALSE(schedule_error(inst, chained.schedule).has_value());
  EXPECT_LE(chained.makespan, dive.makespan + 1e-9)
      << "chain returned a worse schedule than its own dive phase";
  EXPECT_GE(chained.nodes, dive.nodes);  // the chain counts its dive too
}

// The chain's prove phase runs on the dive's search: it re-solves the dive's
// root model warm instead of building a second bounder and solving the same
// root LP cold. So the chain spends fewer LP iterations than its dive plus
// the cold prove that the same start and the remaining node budget give,
// and certifies at least the better of their bounds. Node caps, not the
// wall clock, truncate every run, so each case is deterministic: at 500 the
// dive spends the whole budget and the prove phase is its root step alone;
// at 20,000 the DFS runs about 13,000 nodes.
TEST(DiveThenProve, OneRootModelPerChain) {
  UnrelatedGenParams p;
  p.num_jobs = 30;
  p.num_machines = 5;
  p.num_classes = 6;
  const Instance inst = generate_unrelated(p, 9);

  for (const std::size_t max_nodes : {std::size_t{500}, std::size_t{20000}}) {
    ExactOptions opt;
    opt.mode = ExactMode::kDiveThenProve;
    opt.max_nodes = max_nodes;
    opt.time_limit_s = 60.0;
    opt.dive_time_limit_s = 10.0;
    const ExactResult chain = solve_exact(inst, opt);

    ExactOptions dive_opt = opt;
    dive_opt.mode = ExactMode::kDive;
    dive_opt.time_limit_s =
        std::min(opt.dive_time_limit_s, 0.5 * opt.time_limit_s);
    const ExactResult dive = solve_exact(inst, dive_opt);
    ASSERT_FALSE(dive.proven_optimal);

    ExactOptions cold_opt = opt;
    cold_opt.mode = ExactMode::kProve;
    cold_opt.initial_schedule = polished_start(inst, dive.schedule);
    cold_opt.max_nodes = max_nodes > dive.nodes ? max_nodes - dive.nodes : 0;
    const ExactResult cold = solve_exact(inst, cold_opt);

    const std::string where = "max_nodes " + std::to_string(max_nodes);
    EXPECT_LT(chain.lp_iterations, dive.lp_iterations + cold.lp_iterations)
        << where;
    const double lb = std::max(dive.lower_bound, cold.lower_bound);
    EXPECT_GE(chain.lower_bound, lb - exact::kCertRelTol * std::max(1.0, lb))
        << where;
    EXPECT_LE(chain.makespan, std::min(dive.makespan, cold.makespan) + 1e-9)
        << where;
  }
}

// The prove phase starts from the best of the dive's schedule, its local-
// search polish, and greedy after local search (the `local-search` solver's
// schedule), so on the unrelated-midsize shape, where no proof closes, the
// chain is never worse than `local-search`. Node budgets, not the wall
// clock, truncate both phases, so every case is deterministic.
TEST(DiveThenProve, NeverWorseThanLocalSearch) {
  UnrelatedGenParams p;
  p.num_jobs = 40;
  p.num_machines = 6;
  p.num_classes = 8;
  p.eligibility = 0.85;
  p.correlated = true;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Instance inst = generate_unrelated(p, seed);
    const double polished =
        local_search(inst, greedy_min_load(inst).schedule).makespan;
    for (const BoundMode bound : {BoundMode::kAssignment, BoundMode::kAuto}) {
      for (const std::size_t max_nodes : {std::size_t{0}, std::size_t{200}}) {
        ExactOptions opt;
        opt.mode = ExactMode::kDiveThenProve;
        opt.bound = bound;
        opt.max_nodes = max_nodes;
        opt.time_limit_s = 60.0;
        opt.dive_time_limit_s = 10.0;
        const ExactResult r = solve_exact(inst, opt);
        const std::string where =
            "seed " + std::to_string(seed) +
            (bound == BoundMode::kAuto ? " kAuto" : " kAssignment") +
            " max_nodes " + std::to_string(max_nodes);
        EXPECT_FALSE(schedule_error(inst, r.schedule).has_value()) << where;
        EXPECT_LE(r.makespan, polished + 1e-9) << where;
        EXPECT_EQ(r.proven_optimal, r.gap == 0.0) << where;
      }
    }
  }
}

}  // namespace
}  // namespace setsched
