// Differential suite for the bounded-variable dual simplex (forced via
// SimplexAlgorithm::kDual and exercised automatically by warm
// re-optimization), pinned against the dense tableau oracle; plus regression
// coverage proving that a warm basis mutated into primal infeasibility is
// re-optimized by the dual loop in far fewer iterations than a cold solve.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "api/presets.h"
#include "common/prng.h"
#include "core/bounds.h"
#include "core/generators.h"
#include "exact/lp_bound.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "unrelated/assignment_lp.h"

namespace setsched::lp {
namespace {

SimplexOptions with(SimplexAlgorithm algorithm) {
  SimplexOptions options;
  options.algorithm = algorithm;
  return options;
}

/// Seeded random LP: box-bounded variables, mixed <= / >= / = rows built
/// around a known feasible point so the instance is never vacuous.
Model random_lp(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const std::size_t nvars = 4 + rng.next_below(12);  // 4..15
  const std::size_t ncons = 2 + rng.next_below(8);   // 2..9
  Model m(rng.next_bernoulli(0.5) ? Objective::kMaximize
                                  : Objective::kMinimize);
  std::vector<double> point(nvars);
  for (std::size_t j = 0; j < nvars; ++j) {
    const double ub =
        rng.next_bernoulli(0.8) ? rng.next_real(0.5, 4.0) : kInfinity;
    m.add_variable(0, ub, rng.next_real(-3, 3));
    point[j] = rng.next_real(0, std::isfinite(ub) ? ub : 1.0);
  }
  for (std::size_t r = 0; r < ncons; ++r) {
    std::vector<Entry> row;
    double activity = 0.0;
    for (std::size_t j = 0; j < nvars; ++j) {
      if (rng.next_bernoulli(0.3)) continue;  // keep rows sparse
      const double coef = rng.next_real(-1.5, 2.5);
      row.push_back({j, coef});
      activity += coef * point[j];
    }
    if (row.empty()) row.push_back({0, 1.0}), activity = point[0];
    const double roll = rng.next_real(0, 1);
    const auto sense = roll < 0.5   ? Sense::kLessEqual
                       : roll < 0.8 ? Sense::kGreaterEqual
                                    : Sense::kEqual;
    double rhs = activity;
    if (sense == Sense::kLessEqual) rhs += rng.next_real(0, 2);
    if (sense == Sense::kGreaterEqual) rhs -= rng.next_real(0, 2);
    m.add_constraint(std::move(row), sense, rhs);
  }
  return m;
}

class DualDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DualDifferentialTest, ForcedDualMatchesTableauOracle) {
  const Model m = random_lp(GetParam() * 104729 + 7);
  const Solution oracle = solve(m, with(SimplexAlgorithm::kTableau));
  const Solution dual = solve(m, with(SimplexAlgorithm::kDual));
  ASSERT_EQ(oracle.status, dual.status) << "seed " << GetParam();
  if (!oracle.optimal()) return;
  EXPECT_NEAR(oracle.objective, dual.objective,
              1e-6 * std::max(1.0, std::abs(oracle.objective)))
      << "seed " << GetParam();
  EXPECT_LE(m.max_violation(dual.x), 1e-5) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualDifferentialTest,
                         ::testing::Range<std::uint64_t>(0, 60));

TEST(DualSimplex, WarmRhsMutationTakesTheDualPath) {
  // min x + 2y st x + y >= 4, x <= 4, y <= 5  ->  x=4, y=0, obj 4. Raising
  // the demand to 8.5 overflows the basic slack (the nonbasic columns sit at
  // x=4, y=0, so the basis turns primal-infeasible) while every reduced
  // cost stays untouched: the textbook dual re-optimization case.
  Model m(Objective::kMinimize);
  const auto x = m.add_variable(0, 4, 1);
  const auto y = m.add_variable(0, 5, 2);
  const auto row = m.add_constraint({{x, 1}, {y, 1}}, Sense::kGreaterEqual, 4);
  const Solution first = solve(m, with(SimplexAlgorithm::kAuto));
  ASSERT_TRUE(first.optimal());
  EXPECT_FALSE(first.via_dual);  // cold primal solve
  EXPECT_NEAR(first.objective, 4.0, 1e-7);

  m.set_rhs(row, 8.5);  // x=4, y=4.5 -> obj 13
  SimplexOptions warm = with(SimplexAlgorithm::kAuto);
  warm.warm_start = &first.basis;
  const Solution second = solve(m, warm);
  ASSERT_TRUE(second.optimal());
  EXPECT_TRUE(second.via_dual);
  EXPECT_NEAR(second.objective, 13.0, 1e-7);
}

TEST(DualSimplex, DetectsInfeasibilityOfWarmProbe) {
  // Tightening the box so the demand row cannot be met: the dual loop must
  // report kInfeasible (dual unbounded) and still hand back a basis.
  Model m(Objective::kMinimize);
  const auto x = m.add_variable(0, 3, 1);
  const auto y = m.add_variable(0, 5, 2);
  const auto row = m.add_constraint({{x, 1}, {y, 1}}, Sense::kGreaterEqual, 4);
  const Solution first = solve(m, with(SimplexAlgorithm::kAuto));
  ASSERT_TRUE(first.optimal());

  m.set_rhs(row, 10);  // max attainable x + y is 8
  SimplexOptions warm = with(SimplexAlgorithm::kAuto);
  warm.warm_start = &first.basis;
  const Solution probe = solve(m, warm);
  EXPECT_EQ(probe.status, SolveStatus::kInfeasible);
  EXPECT_TRUE(probe.via_dual);
  EXPECT_FALSE(probe.basis.empty());
}

TEST(DualSimplex, ColdDualSolvesNonnegativeCostModels) {
  // All costs >= 0 means the all-logical basis is dual-feasible: kDual must
  // solve without a single primal pivot and match the tableau.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Xoshiro256 rng(seed + 991);
    Model m(Objective::kMinimize);
    const std::size_t nvars = 3 + rng.next_below(8);
    for (std::size_t j = 0; j < nvars; ++j) {
      m.add_variable(0, 1 + rng.next_real(0, 3), rng.next_real(0, 2));
    }
    for (std::size_t r = 0; r < 2 + rng.next_below(4); ++r) {
      std::vector<Entry> row;
      for (std::size_t j = 0; j < nvars; ++j) {
        if (rng.next_bernoulli(0.5)) row.push_back({j, rng.next_real(0.2, 2)});
      }
      if (row.empty()) row.push_back({0, 1.0});
      m.add_constraint(std::move(row), Sense::kGreaterEqual,
                       rng.next_real(0.5, 2.0));
    }
    const Solution oracle = solve(m, with(SimplexAlgorithm::kTableau));
    const Solution dual = solve(m, with(SimplexAlgorithm::kDual));
    ASSERT_EQ(oracle.status, dual.status) << "seed " << seed;
    if (!oracle.optimal()) continue;
    EXPECT_TRUE(dual.via_dual) << "seed " << seed;
    EXPECT_NEAR(oracle.objective, dual.objective,
                1e-6 * std::max(1.0, std::abs(oracle.objective)))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace setsched::lp

namespace setsched {
namespace {

using lp::SimplexAlgorithm;

TEST(DualWarmStart, TSearchProbesReoptimizeDually) {
  // The tentpole regression, pinned like the PR 3 warm-start test: on the
  // unrelated-medium shape, descending T probes eventually mutate the warm
  // basis into primal infeasibility; the first such probe must (a) go
  // through the dual simplex and (b) re-optimize in fewer iterations than a
  // cold solve of the same probe — by a wide margin. (Early probes whose
  // basis keeps enough load slack stay primal and cost ~0 pivots; that case
  // is covered by the PR 3 warm-start regression.)
  const ProblemInput input = generate_preset("unrelated-medium", 1);
  const Instance& inst = input.instance;
  const double hi = unrelated_upper_bound(inst);

  ParametricAssignmentLp warm_chain(inst, hi);
  ASSERT_TRUE(warm_chain.solve(hi).has_value());
  EXPECT_FALSE(warm_chain.session().last().via_dual);  // cold primal seed
  EXPECT_GT(warm_chain.session().last().iterations, 0u);

  double probe = hi;
  bool dual_fired = false;
  for (int step = 0; step < 20 && !dual_fired; ++step) {
    probe *= 0.92;
    if (!warm_chain.solve(probe).has_value()) break;
    dual_fired = warm_chain.session().last().via_dual;
  }
  ASSERT_TRUE(dual_fired)
      << "no descending feasible probe ever took the dual path";
  const std::size_t warm_iterations = warm_chain.session().last().iterations;
  EXPECT_GE(warm_chain.effort().lp_dual_solves, 1u);

  ParametricAssignmentLp cold(inst, probe);
  ASSERT_TRUE(cold.solve(probe).has_value());
  const std::size_t cold_probe_iterations = cold.session().last().iterations;

  EXPECT_LT(warm_iterations, cold_probe_iterations)
      << "dual re-optimization must beat a cold solve";
  EXPECT_LT(warm_iterations * 2, cold_probe_iterations);
}

TEST(DualWarmStart, SearchReportsDualSolves) {
  UnrelatedGenParams p;
  p.num_jobs = 20;
  p.num_machines = 4;
  p.num_classes = 4;
  const Instance inst = generate_unrelated(p, 11);
  const LpSearchResult r = search_assignment_lp(inst, 0.05);
  EXPECT_GE(r.lp_solves, 2u);
  // Every post-seed probe mutates bounds/rhs of a warm optimal (or
  // dual-terminal) basis, so the dual path must fire at least once.
  EXPECT_GT(r.lp_dual_solves, 0u);
  EXPECT_LE(r.lp_dual_solves, r.lp_solves);
}

class MakespanLpTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MakespanLpTest, MinMakespanMatchesTableauAndFeasibilityThreshold) {
  UnrelatedGenParams p;
  p.num_jobs = 10;
  p.num_machines = 3;
  p.num_classes = 4;
  p.eligibility = 0.8;
  const Instance inst = generate_unrelated(p, GetParam() + 61);
  const double hi = unrelated_upper_bound(inst);

  lp::SimplexOptions dual_simplex;
  dual_simplex.algorithm = SimplexAlgorithm::kDual;
  exact::LpBounder dual_lp(inst, hi, dual_simplex);
  ASSERT_TRUE(dual_lp.available());
  const double dual_value = dual_lp.root_lower_bound(0.0, hi);
  ASSERT_GT(dual_value, 0.0);

  lp::SimplexOptions oracle_simplex;
  oracle_simplex.algorithm = SimplexAlgorithm::kTableau;
  exact::LpBounder oracle_lp(inst, hi, oracle_simplex);
  const double oracle_value = oracle_lp.root_lower_bound(0.0, hi);
  ASSERT_GT(oracle_value, 0.0);
  // The bounder guards every solve, and a contested answer would be
  // re-solved by the revised rungs: the oracle side must be the tableau's.
  const EffortCounters oracle_effort = oracle_lp.effort();
  ASSERT_EQ(oracle_effort.lp_recoveries + oracle_effort.lp_oracle_fallbacks,
            0u);
  EXPECT_NEAR(dual_value, oracle_value, 1e-5 * std::max(1.0, oracle_value));

  // Threshold property against the classic feasibility LP: LP(T) is
  // feasible iff T >= min fractional makespan.
  const double v = dual_value;
  EXPECT_TRUE(solve_assignment_lp(inst, v * 1.01).has_value());
  if (v * 0.97 >= assignment_lp_floor(inst)) {
    EXPECT_FALSE(solve_assignment_lp(inst, v * 0.97).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MakespanLpTest,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace setsched
