// Branch-and-price suite (src/exact/config_bound.h + BoundMode wiring):
// differential checks of the configuration-LP bound against brute force and
// the assignment-LP bound, the warm-start / column-pool invariants of the
// ConfigLpBounder, and the node-count acceptance pin of the config bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "api/presets.h"
#include "core/generators.h"
#include "core/schedule.h"
#include "exact/branch_bound.h"
#include "exact/config_bound.h"
#include "lp/fault.h"

namespace setsched {
namespace {

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

UnrelatedGenParams tiny_params() {
  UnrelatedGenParams p;
  p.num_jobs = 10;
  p.num_machines = 3;
  p.num_classes = 3;
  return p;
}

/// Root lower bound of a one-node run under the given bound mode (the search
/// aborts immediately after the root bounding phase, so `lower_bound` is the
/// root certificate itself).
double root_bound(const Instance& inst, BoundMode mode) {
  ExactOptions opt;
  opt.max_nodes = 1;
  opt.bound = mode;
  opt.cg_bound_depth = inst.num_jobs();
  return solve_exact(inst, opt).lower_bound;
}

class CgRootBoundTest : public ::testing::TestWithParam<std::uint64_t> {};

// Satellite 1 (root): the config-LP root bound must dominate the
// assignment-LP root bound (it is computed ON TOP of it — the bisection
// starts from the assignment certificate) and stay a valid lower bound on
// the brute-force optimum.
TEST_P(CgRootBoundTest, ConfigRootBoundDominatesAssignmentAndStaysValid) {
  const Instance inst = generate_unrelated(tiny_params(), GetParam());
  const double opt = enumerate_opt(inst);
  const double assignment_lb = root_bound(inst, BoundMode::kAssignment);
  const double config_lb = root_bound(inst, BoundMode::kConfig);
  EXPECT_GE(config_lb, assignment_lb - 1e-9) << "seed " << GetParam();
  EXPECT_LE(config_lb, opt * (1.0 + 1e-9)) << "seed " << GetParam();
  EXPECT_LE(assignment_lb, opt * (1.0 + 1e-9)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CgRootBoundTest,
                         ::testing::Range<std::uint64_t>(0, 8));

// Satellite 1 (pinned nodes): along a prefix of a PROVEN-optimal schedule,
// the bounder must keep answering "feasible" at T = OPT — an infeasible
// verdict there would certify away the optimum itself (the exact unsound
// prune the grid-conservatism inflation exists to prevent).
TEST(CgPinnedNodes, NeverCertifiesAwayTheOptimum) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Instance inst = generate_unrelated(tiny_params(), seed + 50);
    const ExactResult optimum = solve_exact(inst);
    ASSERT_TRUE(optimum.proven_optimal) << "seed " << seed;
    const double T = optimum.makespan * (1.0 + 1e-6);

    exact::ConfigBoundOptions copt;
    copt.rounds_per_node = 50;  // generous: a stall would mask the check
    exact::ConfigLpBounder bounder(inst, T, copt);
    ASSERT_TRUE(bounder.available()) << "seed " << seed;
    EXPECT_TRUE(bounder.feasible(T)) << "seed " << seed << " at the root";
    for (JobId j = 0; j < inst.num_jobs() / 2; ++j) {
      bounder.pin(j, optimum.schedule.assignment[j]);
      EXPECT_TRUE(bounder.feasible(T))
          << "seed " << seed << " after pinning job " << j
          << " per the optimal schedule";
    }
    EXPECT_EQ(bounder.fallbacks(), 0u) << "seed " << seed;
  }
}

// The flip side: well below the assignment-LP floor the configuration LP
// must certify infeasibility (the verdict the search prunes on).
TEST(CgPinnedNodes, CertifiesInfeasibilityBelowTheFloor) {
  const Instance inst = generate_unrelated(tiny_params(), 3);
  const double floor = assignment_lp_floor(inst);
  exact::ConfigBoundOptions copt;
  copt.rounds_per_node = 50;
  exact::ConfigLpBounder bounder(inst, floor, copt);
  ASSERT_TRUE(bounder.available());
  EXPECT_FALSE(bounder.feasible(floor * 0.4));
}

/// Satellite 2 contract: under `mode`, branch-and-price must reproduce brute
/// force exactly, proven, with a coherent certificate.
void expect_matches_enumeration(const Instance& inst, BoundMode mode,
                                std::uint64_t seed,
                                const lp::FaultPlan* plan = nullptr) {
  const double reference = enumerate_opt(inst);
  ExactOptions opt;
  opt.bound = mode;
  opt.cg_bound_depth = inst.num_jobs();
  opt.simplex.fault_plan = plan;
  const ExactResult r = solve_exact(inst, opt);
  EXPECT_TRUE(r.proven_optimal) << "seed " << seed;
  EXPECT_NEAR(r.makespan, reference, 1e-9) << "seed " << seed;
  EXPECT_FALSE(schedule_error(inst, r.schedule).has_value());
  EXPECT_NEAR(makespan(inst, r.schedule), r.makespan, 1e-9);
  EXPECT_DOUBLE_EQ(r.gap, 0.0);
  EXPECT_NEAR(r.lower_bound, r.makespan, 1e-9);
}

class CgHolesRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CgHolesRandomTest, MatchesEnumerationWithEligibilityHoles) {
  UnrelatedGenParams p;
  p.num_jobs = 9;
  p.num_machines = 3;
  p.num_classes = 4;
  p.eligibility = 0.5;
  const Instance inst = generate_unrelated(p, GetParam() + 100);
  expect_matches_enumeration(inst, BoundMode::kConfig, GetParam());
  expect_matches_enumeration(inst, BoundMode::kAuto, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CgHolesRandomTest,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(CgDifferential, MatchesEnumerationWithZeroSetups) {
  UnrelatedGenParams p;
  p.num_jobs = 8;
  p.num_machines = 3;
  p.num_classes = 2;
  p.min_setup = 0.0;
  p.max_setup = 0.0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    expect_matches_enumeration(generate_unrelated(p, seed + 300),
                               BoundMode::kConfig, seed);
  }
}

TEST(CgDifferential, MatchesEnumerationWithSingleClass) {
  // One class degenerates every configuration to "one setup + a job set":
  // the class-opening bookkeeping of the pricer must not break.
  UnrelatedGenParams p;
  p.num_jobs = 8;
  p.num_machines = 3;
  p.num_classes = 1;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    expect_matches_enumeration(generate_unrelated(p, seed + 700),
                               BoundMode::kConfig, seed);
  }
}

// Satellite 2 (injection): under deterministic LP fault injection the
// branch-and-price search must still match the oracle — a non-clean RMP
// solve demotes the probe to the assignment bound, it never prunes.
TEST(CgDifferential, MatchesEnumerationUnderFaultInjection) {
  UnrelatedGenParams p;
  p.num_jobs = 8;
  p.num_machines = 3;
  p.num_classes = 3;
  p.eligibility = 0.8;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Instance inst = generate_unrelated(p, seed + 400);
    const lp::FaultPlan plan = lp::FaultPlan::parse("all@0.05", seed * 17 + 1);
    expect_matches_enumeration(inst, BoundMode::kConfig, seed, &plan);
  }
}

// Satellite 3 (warm start): probes resuming the parent's column pool and
// basis must price fewer total rounds down a DFS path than cold bounders
// rebuilding each pinned node from an empty pool — the whole point of
// keeping ONE RMP alive across the tree. A single child node can lose the
// comparison (pins reshape the duals enough that a fresh pool sometimes
// converges faster than a stale one), so the regression pins the AGGREGATE
// over a 6-deep descent along an optimal schedule, where pool reuse
// compounds while every cold rebuild pays full price.
TEST(CgWarmStart, PathDescentBeatsColdRebuilds) {
  UnrelatedGenParams p;
  p.num_jobs = 14;
  p.num_machines = 4;
  p.num_classes = 4;
  const Instance inst = generate_unrelated(p, 8);
  const ExactResult optimum = solve_exact(inst);
  ASSERT_TRUE(optimum.proven_optimal);
  const double T = optimum.makespan * 1.02;
  exact::ConfigBoundOptions copt;
  copt.rounds_per_node = 200;  // no stalls: measure real rounds-to-converge

  exact::ConfigLpBounder warm(inst, T, copt);
  ASSERT_TRUE(warm.available());
  ASSERT_TRUE(warm.feasible(T));  // root probe fills the pool
  std::size_t warm_total = 0;
  std::size_t cold_total = 0;
  for (std::size_t d = 1; d <= 6; ++d) {
    warm.pin(d - 1, optimum.schedule.assignment[d - 1]);
    ASSERT_TRUE(warm.feasible(T)) << "depth " << d;
    warm_total += warm.last_probe_rounds();

    exact::ConfigLpBounder cold(inst, T, copt);
    for (std::size_t j = 0; j < d; ++j) {
      cold.pin(j, optimum.schedule.assignment[j]);
    }
    ASSERT_TRUE(cold.feasible(T)) << "depth " << d;
    cold_total += cold.last_probe_rounds();
  }
  EXPECT_LT(warm_total, cold_total)
      << "warm chain " << warm_total << " rounds vs cold rebuilds "
      << cold_total;
}

// Satellite 3 (pool invariant): a pin / probe / unpin walk — the shape of a
// DFS descent and backtrack — must keep the pool/RMP invariants intact
// (recounted pin-blocks, bound toggles, basis within model bounds) and may
// only ever GROW the column pool: backtracking never drops a column, so no
// basis can be left referencing a vanished variable.
TEST(CgColumnPool, SurvivesPinProbeUnpinWalkWithoutDroppingColumns) {
  const Instance inst = generate_unrelated(tiny_params(), 13);
  const ExactResult optimum = solve_exact(inst);
  ASSERT_TRUE(optimum.proven_optimal);
  const double T = optimum.makespan * (1.0 + 1e-6);

  exact::ConfigBoundOptions copt;
  copt.rounds_per_node = 50;
  exact::ConfigLpBounder bounder(inst, T, copt);
  ASSERT_TRUE(bounder.available());
  ASSERT_TRUE(bounder.feasible(T));
  ASSERT_TRUE(bounder.check_invariants());

  std::size_t columns = bounder.columns();
  const JobId depth = inst.num_jobs() / 2;
  for (JobId j = 0; j < depth; ++j) {
    bounder.pin(j, optimum.schedule.assignment[j]);
    (void)bounder.feasible(T);
    EXPECT_TRUE(bounder.check_invariants()) << "after pinning job " << j;
    EXPECT_GE(bounder.columns(), columns) << "pool shrank at job " << j;
    columns = bounder.columns();
  }
  for (JobId j = depth; j-- > 0;) {
    bounder.unpin(j);
    EXPECT_TRUE(bounder.check_invariants()) << "after unpinning job " << j;
    EXPECT_EQ(bounder.columns(), columns) << "backtracking dropped columns";
  }
  // Fully unwound, the root probe must still run clean on the same pool.
  EXPECT_TRUE(bounder.feasible(T));
  EXPECT_TRUE(bounder.check_invariants());
}

// Every RMP solve of a branch-and-price run, node probes and the fine-grid
// root pass alike, is an LP solve of the run: lp_solves is the assignment
// probes (lp_bounds_used) plus one RMP solve per pricing round.
TEST(CgEffort, RmpSolvesCountAsLpSolves) {
  const ProblemInput input = generate_preset("unrelated-tiny", 1);
  ExactOptions opt;
  opt.bound = BoundMode::kAuto;
  const ExactResult r = solve_exact(input.instance, opt);
  ASSERT_TRUE(r.proven_optimal);
  ASSERT_GT(r.cg_pricing_rounds, 0u);
  ASSERT_GT(r.lp_bounds_used, 0u);
  EXPECT_EQ(r.lp_solves, r.lp_bounds_used + r.cg_pricing_rounds);
  EXPECT_LE(r.lp_dual_solves, r.lp_solves);
}

// The coarse config-LP root bisection stops at the search's budget: with
// no time at all it prices nothing. Unbounded, it spends 40-56
// pricing rounds on these instances.
TEST(CgEffort, PastDeadlineSkipsRootBisection) {
  for (const BoundMode mode : {BoundMode::kConfig, BoundMode::kAuto}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const ProblemInput input = generate_preset("unrelated-small", seed);
      ExactOptions opt;
      opt.bound = mode;
      opt.time_limit_s = 0.0;  // the deadline is the call's start
      const ExactResult r = solve_exact(input.instance, opt);
      EXPECT_EQ(r.cg_pricing_rounds, 0u) << "seed " << seed;
      EXPECT_EQ(schedule_error(input.instance, r.schedule), std::nullopt);
      EXPECT_EQ(r.proven_optimal, r.gap == 0.0) << "seed " << seed;
    }
  }
}

// An unbounded budget (a time limit beyond the clock's range) must not
// overflow the root bisection's deadline into the past: the search prices
// exactly as under an ample finite budget.
TEST(CgEffort, HugeTimeLimitStillPricesRootBisection) {
  const ProblemInput input = generate_preset("unrelated-tiny", 1);
  ExactOptions opt;
  opt.bound = BoundMode::kConfig;
  opt.time_limit_s = 600.0;
  const ExactResult ample = solve_exact(input.instance, opt);
  opt.time_limit_s = 1e300;
  const ExactResult huge = solve_exact(input.instance, opt);
  ASSERT_GT(ample.cg_pricing_rounds, 0u);
  EXPECT_EQ(huge.cg_pricing_rounds, ample.cg_pricing_rounds);
  EXPECT_EQ(huge.nodes, ample.nodes);
}

// Tentpole acceptance pin: on the pinned n=14 instance the config bound must
// close the tree in at most 0.7x the assignment bound's nodes, at the same
// proven optimum. (<= is guaranteed deterministically — the config probe
// runs after the assignment probe and only removes certified-improvement-free
// subtrees; the 0.7 factor is the measured tightness payoff.)
TEST(CgAcceptance, ConfigBoundCutsNodesOnPinnedFourteenJobInstance) {
  UnrelatedGenParams p;
  p.num_jobs = 14;
  p.num_machines = 4;
  p.num_classes = 5;
  const Instance inst = generate_unrelated(p, 23);

  ExactOptions assignment;
  assignment.lp_bound_depth = 14;
  const ExactResult base = solve_exact(inst, assignment);

  ExactOptions config = assignment;
  config.bound = BoundMode::kConfig;
  config.cg_bound_depth = 14;
  const ExactResult cg = solve_exact(inst, config);

  ASSERT_TRUE(base.proven_optimal);
  ASSERT_TRUE(cg.proven_optimal);
  EXPECT_NEAR(base.makespan, cg.makespan, 1e-9);
  EXPECT_GT(cg.cg_pricing_rounds, 0u);
  EXPECT_GT(cg.cg_columns, 0u);
  EXPECT_LE(cg.nodes, base.nodes) << "config probes may only remove nodes";
  EXPECT_LE(10 * cg.nodes, 7 * base.nodes)
      << "config " << cg.nodes << " vs assignment " << base.nodes;
}

}  // namespace
}  // namespace setsched
