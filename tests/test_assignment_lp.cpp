#include <gtest/gtest.h>

#include <cmath>

#include "core/generators.h"
#include "core/schedule.h"
#include "exact/branch_bound.h"
#include "restricted/approx.h"
#include "unrelated/assignment_lp.h"

namespace setsched {
namespace {

/// Verifies constraints (1), (2), (4), (5) of ILP-UM's relaxation directly
/// on the recovered fractional solution.
void expect_valid_fractional(const Instance& inst,
                             const FractionalAssignment& f, double T,
                             double tol = 1e-6) {
  for (JobId j = 0; j < inst.num_jobs(); ++j) {
    double total = 0.0;
    for (MachineId i = 0; i < inst.num_machines(); ++i) {
      const double x = f.x(i, j);
      EXPECT_GE(x, -tol);
      if (x > tol) {
        EXPECT_TRUE(inst.eligible(i, j));
        EXPECT_LE(inst.proc(i, j), T + tol);               // (5)
        EXPECT_LE(x, f.y(i, inst.job_class(j)) + tol);     // (4)
      }
      total += x;
    }
    EXPECT_NEAR(total, 1.0, tol) << "job " << j;           // (2)
  }
  for (MachineId i = 0; i < inst.num_machines(); ++i) {    // (1)
    double load = 0.0;
    for (JobId j = 0; j < inst.num_jobs(); ++j) {
      if (f.x(i, j) > 0.0) load += f.x(i, j) * inst.proc(i, j);
    }
    for (ClassId k = 0; k < inst.num_classes(); ++k) {
      if (f.y(i, k) > 0.0) load += f.y(i, k) * inst.setup(i, k);
    }
    EXPECT_LE(load, T + tol) << "machine " << i;
  }
}

TEST(AssignmentLp, FeasibleAtOptimalMakespan) {
  UnrelatedGenParams p;
  p.num_jobs = 8;
  p.num_machines = 3;
  p.num_classes = 3;
  const Instance inst = generate_unrelated(p, 42);
  const ExactResult opt = solve_exact(inst);
  ASSERT_TRUE(opt.proven_optimal);
  const auto frac = solve_assignment_lp(inst, opt.makespan);
  ASSERT_TRUE(frac.has_value());
  expect_valid_fractional(inst, *frac, opt.makespan);
}

TEST(AssignmentLp, InfeasibleWellBelowOptimum) {
  UnrelatedGenParams p;
  p.num_jobs = 8;
  p.num_machines = 3;
  p.num_classes = 3;
  const Instance inst = generate_unrelated(p, 43);
  const double floor = assignment_lp_floor(inst);
  EXPECT_FALSE(solve_assignment_lp(inst, floor * 0.5).has_value());
}

TEST(AssignmentLp, InfeasibleWhenJobCannotFit) {
  Instance inst(2, 1, {0});
  inst.set_proc(0, 0, 10);
  inst.set_proc(1, 0, 12);
  inst.set_setup(0, 0, 1);
  inst.set_setup(1, 0, 1);
  EXPECT_FALSE(solve_assignment_lp(inst, 9.0).has_value());  // (5) kills job 0
  EXPECT_TRUE(solve_assignment_lp(inst, 11.0).has_value());
}

TEST(AssignmentLp, FractionalSplitBeatsIntegralMakespan) {
  // One class, huge setup, two machines: the LP may split fractionally and
  // be feasible at T where any integral schedule is not.
  Instance inst(2, 1, {0, 0});
  for (MachineId i = 0; i < 2; ++i) {
    inst.set_proc(i, 0, 10);
    inst.set_proc(i, 1, 10);
    inst.set_setup(i, 0, 10);
  }
  // Integral optimum: both jobs on one machine = 30, or split = 20 each.
  const ExactResult opt = solve_exact(inst);
  EXPECT_DOUBLE_EQ(opt.makespan, 20.0);
  // Fractional: x = 1/2 everywhere, y = 1/2 each: load = 10 + 5 = 15.
  EXPECT_TRUE(solve_assignment_lp(inst, 15.0).has_value());
  EXPECT_FALSE(solve_assignment_lp(inst, 14.0).has_value());
}

TEST(AssignmentLp, FloorIsSane) {
  Instance inst(2, 1, {0, 0});
  inst.set_proc(0, 0, 4);
  inst.set_proc(1, 0, 6);
  inst.set_proc(0, 1, 8);
  inst.set_proc(1, 1, 2);
  inst.set_setup(0, 0, 1);
  inst.set_setup(1, 0, 1);
  // min procs: job0 -> 4, job1 -> 2; floor = max(4, (4+2)/2) = 4.
  EXPECT_DOUBLE_EQ(assignment_lp_floor(inst), 4.0);
}

class LpSearchTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpSearchTest, WindowBracketsOptimum) {
  UnrelatedGenParams p;
  p.num_jobs = 9;
  p.num_machines = 3;
  p.num_classes = 3;
  p.eligibility = 0.8;
  const Instance inst = generate_unrelated(p, GetParam());
  const ExactResult opt = solve_exact(inst);
  ASSERT_TRUE(opt.proven_optimal);

  const double prec = 0.03;
  const LpSearchResult r = search_assignment_lp(inst, prec);
  EXPECT_GE(r.feasible_T, r.lower_bound - 1e-9);
  EXPECT_LE(r.feasible_T, r.lower_bound * (1 + prec) + 1e-9);
  // The LP value is a lower bound on OPT, so:
  EXPECT_LE(r.lower_bound, opt.makespan + 1e-9) << "seed " << GetParam();
  EXPECT_LE(r.feasible_T, opt.makespan * (1 + prec) + 1e-9);
  expect_valid_fractional(inst, r.fractional, r.feasible_T);
  EXPECT_GE(r.lp_solves, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpSearchTest,
                         ::testing::Range<std::uint64_t>(0, 12));

// A precision below machine epsilon (1.0 + 1e-300 == 1.0) used to hang
// every geometric T-search: once lo and hi are adjacent doubles,
// sqrt(lo * hi) returns one of them and the search probed it forever. Both
// searches must now stop at a window a few ulps wide, with a valid solution.
TEST(GeometricSearch, PrecisionBelowMachineEpsilonTerminates) {
  constexpr double kPrecision = 1e-300;
  constexpr double kUlps = 1e-15;  // a few doubles apart
  UnrelatedGenParams p;
  p.num_jobs = 9;
  p.num_machines = 3;
  p.num_classes = 3;
  const Instance unrelated = generate_unrelated(p, 4);
  const LpSearchResult lp = search_assignment_lp(unrelated, kPrecision);
  EXPECT_LE(lp.lower_bound, lp.feasible_T);
  EXPECT_LE(lp.feasible_T, lp.lower_bound * (1.0 + kUlps));
  // At the exact threshold a load row holds only up to the simplex's primal
  // feasibility tolerance (1e-7) times its coefficients, which are <= T.
  expect_valid_fractional(unrelated, lp.fractional, lp.feasible_T,
                          1e-7 * lp.feasible_T);

  RestrictedGenParams rp;
  rp.num_jobs = 10;
  rp.num_machines = 3;
  rp.num_classes = 3;
  const Instance restricted = generate_restricted_class_uniform(rp, 4);
  const ConstantApproxResult approx =
      two_approx_restricted(restricted, kPrecision);
  EXPECT_FALSE(schedule_error(restricted, approx.schedule).has_value());
  EXPECT_LE(approx.lp_lower_bound, approx.lp_T);
  EXPECT_LE(approx.lp_T, approx.lp_lower_bound * (1.0 + kUlps));
  EXPECT_LE(approx.makespan, 2.0 * approx.lp_T + 1e-6);
}

TEST(AssignmentLp, MinimizesTotalSetupMass) {
  // With a generous T, an (integral) solution with one machine doing all of
  // one class exists; the min-sum-y objective should not open setups it does
  // not need: total y should be close to the number of used classes.
  Instance inst(2, 2, {0, 0, 1, 1});
  for (MachineId i = 0; i < 2; ++i) {
    for (JobId j = 0; j < 4; ++j) inst.set_proc(i, j, 2);
    inst.set_setup(i, 0, 3);
    inst.set_setup(i, 1, 3);
  }
  const auto frac = solve_assignment_lp(inst, 100.0);
  ASSERT_TRUE(frac.has_value());
  double total_y = 0.0;
  for (MachineId i = 0; i < 2; ++i) {
    for (ClassId k = 0; k < 2; ++k) total_y += frac->y(i, k);
  }
  EXPECT_NEAR(total_y, 2.0, 1e-6);  // one setup per class in total
}

}  // namespace
}  // namespace setsched
