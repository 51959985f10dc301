// Differential suite pinning the sparse revised simplex against the dense
// two-phase tableau (the reference oracle), on seeded random LPs and on the
// real scheduling LPs the algorithms build, plus warm-start regression
// coverage for the lp::Session warm chain and the re-parameterized
// assignment-LP T-search built on it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "api/presets.h"
#include "colgen/config_lp.h"
#include "common/prng.h"
#include "core/bounds.h"
#include "core/generators.h"
#include "lp/model.h"
#include "lp/session.h"
#include "lp/simplex.h"
#include "restricted/relaxed_lp.h"
#include "unrelated/assignment_lp.h"

namespace setsched::lp {
namespace {

SimplexOptions with(SimplexAlgorithm algorithm) {
  SimplexOptions options;
  options.algorithm = algorithm;
  return options;
}

bool same_basis(const Basis& a, const Basis& b) {
  return a.structurals == b.structurals && a.logicals == b.logicals;
}

/// Checks that (x, duals) is an optimal certificate: primal feasibility,
/// dual feasibility of the reduced costs under the documented convention
/// (d_j = c_j - y^T A_j in the model's original sense), and complementary
/// slackness on the rows.
void expect_optimality_certificate(const Model& m, const Solution& sol,
                                   double tol = 1e-5) {
  ASSERT_TRUE(sol.optimal());
  EXPECT_LE(m.max_violation(sol.x), tol);
  const double sense = m.objective_sense() == Objective::kMinimize ? 1.0 : -1.0;
  // Reduced costs per column.
  std::vector<double> reduced(m.num_variables());
  for (std::size_t j = 0; j < m.num_variables(); ++j) {
    reduced[j] = m.objective(j);
  }
  for (std::size_t r = 0; r < m.num_constraints(); ++r) {
    for (const Entry& e : m.row(r)) reduced[e.col] -= sol.duals[r] * e.value;
  }
  for (std::size_t j = 0; j < m.num_variables(); ++j) {
    const double d = sense * reduced[j];  // internal-minimize sign
    const bool at_lower = sol.x[j] <= m.lower(j) + tol;
    const bool at_upper =
        std::isfinite(m.upper(j)) && sol.x[j] >= m.upper(j) - tol;
    if (!at_lower && !at_upper) {
      EXPECT_NEAR(d, 0.0, tol) << "interior var " << j;
    } else {
      if (at_lower && !at_upper) {
        EXPECT_GE(d, -tol) << "at-lower var " << j;
      }
      if (at_upper && !at_lower) {
        EXPECT_LE(d, tol) << "at-upper var " << j;
      }
    }
  }
  // Complementary slackness: a nonzero row dual needs a binding row.
  for (std::size_t r = 0; r < m.num_constraints(); ++r) {
    if (m.row_sense(r) == Sense::kEqual) continue;
    if (std::abs(sol.duals[r]) > tol) {
      EXPECT_NEAR(m.row_activity(r, sol.x), m.rhs(r),
                  tol * std::max(1.0, std::abs(m.rhs(r))))
          << "row " << r;
    }
  }
}

/// Extreme-point structure: at most num_constraints variables strictly
/// between their bounds, and every such variable flagged basic.
void expect_extreme_point(const Model& m, const Solution& sol,
                          double tol = 1e-7) {
  std::size_t interior = 0;
  for (std::size_t j = 0; j < m.num_variables(); ++j) {
    const bool inside = sol.x[j] > m.lower(j) + tol &&
                        (!std::isfinite(m.upper(j)) ||
                         sol.x[j] < m.upper(j) - tol);
    if (inside) {
      ++interior;
      EXPECT_EQ(sol.basis.structurals[j], VarStatus::kBasic)
          << "interior var " << j << " not basic";
    }
  }
  EXPECT_LE(interior, m.num_constraints());
  std::size_t basics = 0;
  for (std::size_t j = 0; j < m.num_variables(); ++j) {
    basics += sol.basis.structurals[j] == VarStatus::kBasic ? 1 : 0;
  }
  EXPECT_LE(basics, m.num_constraints());
}

/// Seeded random LP: box-bounded variables, mixed <= / =
/// rows built around a known feasible point so the instance is never vacuous.
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
    const auto sense =
        rng.next_bernoulli(0.6) ? Sense::kLessEqual : Sense::kEqual;
    m.add_constraint(std::move(row), sense,
                     sense == Sense::kEqual ? activity
                                            : activity + rng.next_real(0, 2));
  }
  return m;
}

class DifferentialLpTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialLpTest, RevisedMatchesTableauOracle) {
  const Model m = random_lp(GetParam() * 7919 + 101);
  const Solution tableau = solve(m, with(SimplexAlgorithm::kTableau));
  const Solution revised = solve(m, with(SimplexAlgorithm::kAuto));
  ASSERT_EQ(tableau.status, revised.status) << "seed " << GetParam();
  if (!tableau.optimal()) return;
  EXPECT_NEAR(tableau.objective, revised.objective,
              1e-6 * std::max(1.0, std::abs(tableau.objective)))
      << "seed " << GetParam();
  expect_optimality_certificate(m, tableau);
  expect_optimality_certificate(m, revised);
  expect_extreme_point(m, revised);
  // The revised solver returns a reusable basis snapshot.
  EXPECT_EQ(revised.basis.structurals.size(), m.num_variables());
  EXPECT_EQ(revised.basis.logicals.size(), m.num_constraints());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialLpTest,
                         ::testing::Range<std::uint64_t>(0, 60));

TEST(DifferentialLp, UnboundedAndInfeasibleVerdictsAgree) {
  {
    Model m(Objective::kMaximize);
    const auto x = m.add_variable(0, kInfinity, 1);
    const auto y = m.add_variable(0, kInfinity, 0);
    m.add_constraint({{x, 1}, {y, -1}}, Sense::kLessEqual, 1);
    EXPECT_EQ(solve(m, with(SimplexAlgorithm::kTableau)).status,
              SolveStatus::kUnbounded);
    EXPECT_EQ(solve(m, with(SimplexAlgorithm::kAuto)).status,
              SolveStatus::kUnbounded);
  }
  {
    Model m(Objective::kMinimize);
    const auto x = m.add_variable(0, 1, 0);
    const auto y = m.add_variable(0, 1, 0);
    m.add_constraint({{x, 1}, {y, 1}}, Sense::kGreaterEqual, 3);
    EXPECT_EQ(solve(m, with(SimplexAlgorithm::kTableau)).status,
              SolveStatus::kInfeasible);
    const Solution revised = solve(m, with(SimplexAlgorithm::kAuto));
    EXPECT_EQ(revised.status, SolveStatus::kInfeasible);
    // Even an infeasible probe hands back a basis for the next warm start.
    EXPECT_FALSE(revised.basis.empty());
  }
}

TEST(DifferentialLp, TableauBasisWarmStartsTheRevisedSolverAtItsOptimum) {
  // The tableau reports its basis in the revised solver's convention: a
  // >= row's nonbasic logical sits at its upper bound 0. Adopted as a warm
  // start, that basis is already optimal, so the revised solver confirms it
  // without a pivot.
  // min x + 2y + 3z  s.t.  x + y >= 2,  y + z >= 1,  x + z >= 0.5,
  // x - y <= 0.5, x, y, z in [0, 4]  ->  x = 1, y = 1, z = 0, objective 3;
  // rows 1 and 2 bind, so their logicals are nonbasic at upper.
  Model m(Objective::kMinimize);
  const auto x = m.add_variable(0, 4, 1);
  const auto y = m.add_variable(0, 4, 2);
  const auto z = m.add_variable(0, 4, 3);
  m.add_constraint({{x, 1}, {y, 1}}, Sense::kGreaterEqual, 2);
  m.add_constraint({{y, 1}, {z, 1}}, Sense::kGreaterEqual, 1);
  m.add_constraint({{x, 1}, {z, 1}}, Sense::kGreaterEqual, 0.5);
  m.add_constraint({{x, 1}, {y, -1}}, Sense::kLessEqual, 0.5);
  const Solution tableau = solve(m, with(SimplexAlgorithm::kTableau));
  ASSERT_TRUE(tableau.optimal());
  ASSERT_EQ(tableau.basis.structurals.size(), m.num_variables());
  ASSERT_EQ(tableau.basis.logicals.size(), m.num_constraints());
  SimplexOptions warm = with(SimplexAlgorithm::kAuto);
  warm.warm_start = &tableau.basis;
  const Solution revised = solve(m, warm);
  ASSERT_TRUE(revised.optimal());
  EXPECT_EQ(revised.iterations, 0u);
  EXPECT_NEAR(revised.objective, 3.0, 1e-9);
  EXPECT_NEAR(tableau.objective, 3.0, 1e-9);
  EXPECT_EQ(tableau.basis.logicals[0], VarStatus::kAtUpper);
  EXPECT_TRUE(same_basis(revised.basis, tableau.basis));
}

TEST(DifferentialLp, WarmStartReproducesOptimumAfterReparameterization) {
  // min x + 2y st x + y >= 4, x <= 3, y <= 5  ->  x=3, y=1, obj=5.
  Model m(Objective::kMinimize);
  const auto x = m.add_variable(0, 3, 1);
  const auto y = m.add_variable(0, 5, 2);
  const auto row = m.add_constraint({{x, 1}, {y, 1}}, Sense::kGreaterEqual, 4);
  const Solution first = solve(m, with(SimplexAlgorithm::kAuto));
  ASSERT_TRUE(first.optimal());
  EXPECT_NEAR(first.objective, 5.0, 1e-7);

  // Re-parameterize: tighter x, larger demand.
  m.set_bounds(x, 0, 2);
  m.set_rhs(row, 6);  // x + y >= 6 -> x=2, y=4, obj=10.
  SimplexOptions warm = with(SimplexAlgorithm::kAuto);
  warm.warm_start = &first.basis;
  const Solution second = solve(m, warm);
  ASSERT_TRUE(second.optimal());
  EXPECT_NEAR(second.objective, 10.0, 1e-7);
  const Solution cold = solve(m, with(SimplexAlgorithm::kAuto));
  EXPECT_NEAR(second.objective, cold.objective, 1e-9);
}

TEST(DifferentialLp, WarmStartSurvivesAppendedColumns) {
  // Column-generation shape: maximize coverage, then append a better column
  // and warm-start from the old (now undersized) basis.
  Model m(Objective::kMaximize);
  const auto u = m.add_variable(0, 1, 1);
  const auto row = m.add_constraint({{u, 1}}, Sense::kLessEqual, 0.5);
  const Solution first = solve(m, with(SimplexAlgorithm::kAuto));
  ASSERT_TRUE(first.optimal());
  EXPECT_NEAR(first.objective, 0.5, 1e-7);

  const auto z = m.add_variable(0, 1, 0.25);
  m.add_to_row(row, z, -1.0);  // u - z <= 0.5 -> u = 1, z = 1 -> obj 1.25
  SimplexOptions warm = with(SimplexAlgorithm::kAuto);
  warm.warm_start = &first.basis;
  const Solution second = solve(m, warm);
  ASSERT_TRUE(second.optimal());
  EXPECT_NEAR(second.objective, 1.25, 1e-6);
}

/// min x + y + z  s.t.  x + y >= 2,  y + z >= 2,  all in [0, 2]: optimal
/// at y = 2 with x = z = 0.
Model two_cover_model() {
  Model m(Objective::kMinimize);
  const auto x = m.add_variable(0, 2, 1);
  const auto y = m.add_variable(0, 2, 1);
  const auto z = m.add_variable(0, 2, 1);
  m.add_constraint({{x, 1}, {y, 1}}, Sense::kGreaterEqual, 2);
  m.add_constraint({{y, 1}, {z, 1}}, Sense::kGreaterEqual, 2);
  return m;
}

/// Caps every variable so that x + y <= 1.5 < 2: infeasible.
void make_infeasible(Model& m) {
  m.set_bounds(0, 0, 1);
  m.set_bounds(1, 0, 0.5);
  m.set_bounds(2, 0, 1);
}

TEST(Session, DualTerminalInfeasibleBasisReplacesTheRetainedOne) {
  Session session(two_cover_model());
  ASSERT_TRUE(session.solve().optimal());
  const Basis optimal = session.basis();
  ASSERT_FALSE(optimal.empty());

  // Bound edits keep the warm basis dual-feasible: the dual simplex runs
  // into the infeasibility, and its end basis seeds the next solve.
  make_infeasible(session.model());
  const Solution& sol = session.solve();
  ASSERT_EQ(sol.status, SolveStatus::kInfeasible);
  ASSERT_TRUE(sol.via_dual);
  ASSERT_FALSE(sol.basis.empty());
  EXPECT_FALSE(same_basis(sol.basis, optimal)) << "no dual pivot was made";
  EXPECT_TRUE(same_basis(session.basis(), sol.basis));
}

TEST(Session, PrimalPhaseOneInfeasibleBasisIsDropped) {
  Session session(two_cover_model());
  ASSERT_TRUE(session.solve().optimal());
  const Basis optimal = session.basis();

  // A new column w, unbounded above with a negative cost, in x + y - w >= 2
  // makes the warm basis dual-infeasible in a way no bound flip repairs, so
  // the infeasibility is found by the primal phase 1 instead; its end basis
  // must not replace the retained one.
  Model& m = session.model();
  const auto w = m.add_variable(0, kInfinity, -5);
  m.add_to_row(0, w, -1);
  make_infeasible(m);
  const Solution& sol = session.solve();
  ASSERT_EQ(sol.status, SolveStatus::kInfeasible);
  ASSERT_FALSE(sol.via_dual);
  ASSERT_FALSE(sol.basis.empty());
  EXPECT_FALSE(same_basis(sol.basis, optimal));
  EXPECT_TRUE(same_basis(session.basis(), optimal));
}

TEST(Session, ContestedBasisIsNeverRetained) {
  // max x  s.t. 1.1 x <= rhs, x in [0, 1e12]. At rhs 3e12, x sits at its
  // upper bound and the audit is clean. At rhs 2e11 + 2, x is basic at
  // 181818181820, and the audit recomputes the row activity as
  // 1.1 * x = rhs + 3.05e-5, past the absolute row slack (1e-5) on every
  // rung: the last rung's answer comes back contested, with a basis that
  // must not replace the retained one.
  Model m(Objective::kMaximize);
  const auto x = m.add_variable(0, 1e12, 1);
  m.add_constraint({{x, 1.1}}, Sense::kLessEqual, 3e12);
  SimplexOptions guarded;
  guarded.guard = true;
  Session session(std::move(m), guarded);
  ASSERT_EQ(session.solve().audit_verdict, AuditVerdict::kClean);
  const Basis clean = session.basis();
  ASSERT_FALSE(clean.empty());

  session.model().set_rhs(0, 200'000'000'002.0);
  const Solution& sol = session.solve();
  ASSERT_TRUE(sol.optimal());
  EXPECT_TRUE(sol.audit_contested());
  EXPECT_EQ(sol.oracle_fallbacks, 1u);
  ASSERT_FALSE(sol.basis.empty());
  EXPECT_FALSE(same_basis(sol.basis, clean));
  EXPECT_TRUE(same_basis(session.basis(), clean));
}

TEST(Session, LargeCostOptimumAuditsCleanAndIsRetained) {
  // max 9.1e11 x  s.t. 11 x <= rhs, x in [0, 1]. At rhs 1, x is basic, and
  // the audit recomputes its reduced cost as c - 11 * (c / 11) = -1.2e-4:
  // roundoff on the scale of c, within the slack once it is scaled by |c|.
  Model m(Objective::kMaximize);
  const auto x = m.add_variable(0, 1, 9.1e11);
  m.add_constraint({{x, 11}}, Sense::kLessEqual, 20);
  SimplexOptions guarded;
  guarded.guard = true;
  Session session(std::move(m), guarded);
  ASSERT_EQ(session.solve().audit_verdict, AuditVerdict::kClean);

  session.model().set_rhs(0, 1);
  const Solution& sol = session.solve();
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.audit_verdict, AuditVerdict::kClean);
  EXPECT_EQ(sol.audits_suspect, 0u);
  EXPECT_EQ(sol.oracle_fallbacks, 0u);
  ASSERT_FALSE(sol.basis.empty());
  EXPECT_TRUE(same_basis(session.basis(), sol.basis));
}

TEST(Session, GuardedChainAuditsEverySolve) {
  for (const bool guard : {false, true}) {
    SimplexOptions options;
    options.guard = guard;
    Session session(two_cover_model(), options);
    for (std::size_t solve = 1; solve <= 4; ++solve) {
      session.model().set_rhs(0, 1.0 + 0.5 * static_cast<double>(solve));
      const Solution& sol = session.solve();
      ASSERT_TRUE(sol.optimal());
      EXPECT_EQ(sol.audit_verdict != AuditVerdict::kSkipped, guard)
          << "guard " << guard << " solve " << solve;
    }
    // A recorded infeasibility is exact knowledge: never audited.
    EXPECT_EQ(session.record_infeasible().audit_verdict,
              AuditVerdict::kSkipped);
    EXPECT_EQ(session.solve().audit_verdict != AuditVerdict::kSkipped, guard);
  }
}

TEST(Session, CountersAreTheSumOfTheReturnedSolutions) {
  SimplexOptions guarded;
  guarded.guard = true;
  Session session(two_cover_model(), guarded);
  EffortCounters sum;
  const auto add = [&sum](const Solution& sol) {
    ++sum.lp_solves;
    if (sol.via_dual) ++sum.lp_dual_solves;
    sol.add_counters(sum);
  };
  add(session.solve());
  session.model().set_rhs(0, 3);
  add(session.solve());
  add(session.record_infeasible());
  make_infeasible(session.model());
  add(session.solve());
  EXPECT_EQ(sum.lp_solves, 4u);
  EXPECT_GT(sum.lp_iterations, 0u);
  EXPECT_GT(sum.lp_dual_solves, 0u);
  // Every simplex solve factorizes on entry; the recorded one does not.
  EXPECT_GE(sum.lp_factorizations, 3u);
  EXPECT_GT(sum.lp_lu_nnz, 0u);
  EXPECT_EQ(session.effort(), sum);
}

/// Status and objective of `sol` against the tableau oracle on `m`.
void expect_matches_tableau(const Model& m, const Solution& sol) {
  const Solution oracle = solve(m, with(SimplexAlgorithm::kTableau));
  ASSERT_EQ(sol.status, oracle.status);
  if (!oracle.optimal()) return;
  EXPECT_NEAR(sol.objective, oracle.objective,
              1e-6 * std::max(1.0, std::abs(oracle.objective)));
  expect_optimality_certificate(m, sol);
}

TEST(Session, WrongBoundBoxedColumnsAreFlippedIntoTheDual) {
  // A negative cost on the nonbasic boxed x makes the warm basis
  // dual-infeasible; moving x to its upper bound restores dual feasibility,
  // so the dual simplex still decides both edits below, each of which makes
  // the warm basis primal-infeasible too.
  for (const bool infeasible : {false, true}) {
    Session session(two_cover_model());
    ASSERT_TRUE(session.solve().optimal());
    session.model().set_objective(0, -5);
    if (infeasible) {
      make_infeasible(session.model());
    } else {
      session.model().set_rhs(0, 3);
    }
    const Solution& sol = session.solve();
    EXPECT_TRUE(sol.via_dual) << "infeasible " << infeasible;
    expect_matches_tableau(session.model(), sol);
  }
}

/// min x0 + 2 x1 + x2  s.t.  x0 + x1 >= 1,  x0 + x1 + x2 >= 2,  x2 <= 3,
/// all in [0, 4]. Columns x0 and x1 are identical, so no basis holds both.
Model twin_column_model() {
  Model m(Objective::kMinimize);
  const auto x0 = m.add_variable(0, 4, 1);
  const auto x1 = m.add_variable(0, 4, 2);
  const auto x2 = m.add_variable(0, 4, 1);
  m.add_constraint({{x0, 1}, {x1, 1}}, Sense::kGreaterEqual, 1);
  m.add_constraint({{x0, 1}, {x1, 1}, {x2, 1}}, Sense::kGreaterEqual, 2);
  m.add_constraint({{x2, 1}}, Sense::kLessEqual, 3);
  return m;
}

TEST(FactorRepair, SingularWarmBasesAreRepairedToTheOracleOptimum) {
  const Model m = twin_column_model();
  const auto basis = [](std::vector<VarStatus> structurals) {
    return Basis{std::move(structurals),
                 std::vector<VarStatus>(3, VarStatus::kAtLower)};
  };
  // Both twins basic: the second one eliminates to an all-zero column.
  const Basis twins = basis(
      {VarStatus::kBasic, VarStatus::kBasic, VarStatus::kBasic});
  // One structural basic, padded with the logicals of rows 0 and 1: x0's
  // column lies in their span, so it eliminates to zero and row 2 is left
  // without a pivot.
  const Basis short_of_logicals = basis(
      {VarStatus::kBasic, VarStatus::kAtLower, VarStatus::kAtLower});
  for (const Basis* warm : {&twins, &short_of_logicals}) {
    for (const std::size_t refactor_interval : {std::size_t{1},
                                                std::size_t{64}}) {
      SimplexOptions options;
      options.warm_start = warm;
      options.refactor_interval = refactor_interval;
      const Solution sol = solve(m, options);
      expect_matches_tableau(m, sol);
      ASSERT_EQ(sol.basis.structurals.size(), 3u);
      EXPECT_FALSE(sol.basis.structurals[0] == VarStatus::kBasic &&
                   sol.basis.structurals[1] == VarStatus::kBasic);
    }
  }
}

/// Random LPs sparser and larger than random_lp: 12..39 rows, 15..59
/// columns of 1..4 nonzeros each, so bases mix logicals with structurals
/// and an eliminated column reaches only a few rows.
Model random_sparse_lp(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const std::size_t nrows = 12 + rng.next_below(28);
  const std::size_t nvars = 15 + rng.next_below(45);
  Model m(rng.next_bernoulli(0.5) ? Objective::kMaximize
                                  : Objective::kMinimize);
  std::vector<std::vector<Entry>> rows(nrows);
  std::vector<double> activity(nrows, 0.0);
  for (std::size_t j = 0; j < nvars; ++j) {
    const double ub = rng.next_real(0.5, 4.0);
    m.add_variable(0, ub, rng.next_real(-3, 3));
    const double point = rng.next_real(0, ub);
    const std::size_t nnz = 1 + rng.next_below(4);
    for (std::size_t t = 0; t < nnz; ++t) {
      const std::size_t r = rng.next_below(nrows);
      const double coef = rng.next_real(-1.5, 2.5);
      rows[r].push_back({j, coef});  // duplicates are summed by the model
      activity[r] += coef * point;
    }
  }
  for (std::size_t r = 0; r < nrows; ++r) {
    if (rows[r].empty()) continue;
    const double u = rng.next_real(0, 1);
    if (u < 0.4) {
      m.add_constraint(std::move(rows[r]), Sense::kLessEqual,
                       activity[r] + rng.next_real(0, 2));
    } else if (u < 0.7) {
      m.add_constraint(std::move(rows[r]), Sense::kGreaterEqual,
                       activity[r] - rng.next_real(0, 2));
    } else {
      m.add_constraint(std::move(rows[r]), Sense::kEqual, activity[r]);
    }
  }
  return m;
}

class SparseRefactorEveryPivotTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparseRefactorEveryPivotTest, WarmChainMatchesTableauOracle) {
  // refactor_interval = 1 refactorizes after every pivot, so the
  // elimination runs on every basis the chain visits, cold and warm.
  SimplexOptions every_pivot;
  every_pivot.refactor_interval = 1;
  Session session(random_sparse_lp(GetParam() * 104729 + 7), every_pivot);
  ASSERT_GT(session.model().num_constraints(), 0u);
  expect_matches_tableau(session.model(), session.solve());
  // Warm re-solves after rhs and bound edits.
  Xoshiro256 rng(GetParam());
  for (int round = 0; round < 3; ++round) {
    Model& m = session.model();
    for (std::size_t r = 0; r < m.num_constraints(); ++r) {
      if (rng.next_bernoulli(0.3)) {
        m.set_rhs(r, m.rhs(r) + rng.next_real(-0.5, 0.5));
      }
    }
    const std::size_t j = rng.next_below(m.num_variables());
    m.set_bounds(j, 0, m.upper(j) * 0.5);
    expect_matches_tableau(session.model(), session.solve());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseRefactorEveryPivotTest,
                         ::testing::Range<std::uint64_t>(0, 40));

/// The session's warm answer after an edit equals a cold one-shot solve of
/// the edited model (each edit below leaves a unique optimum).
void expect_matches_cold(Session& session) {
  const Solution& warm = session.solve();
  const Solution cold = solve(session.model());
  ASSERT_EQ(warm.status, cold.status);
  ASSERT_TRUE(cold.optimal());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  ASSERT_EQ(warm.x.size(), cold.x.size());
  for (std::size_t j = 0; j < cold.x.size(); ++j) {
    EXPECT_NEAR(warm.x[j], cold.x[j], 1e-9) << "x" << j;
  }
}

TEST(Workspace, SessionSolvesSeeEveryModelEdit) {
  // min 3x + 2y + 4z  s.t.  x + y >= 2,  x + 2y + z >= 3,  all in [0, 5]:
  // y = 2, objective 4.
  Model base(Objective::kMinimize);
  const auto x = base.add_variable(0, 5, 3);
  const auto y = base.add_variable(0, 5, 2);
  const auto z = base.add_variable(0, 5, 4);
  const auto r0 = base.add_constraint({{x, 1}, {y, 1}}, Sense::kGreaterEqual, 2);
  const auto r1 = base.add_constraint({{x, 1}, {y, 2}, {z, 1}},
                                      Sense::kGreaterEqual, 3);
  Session session(std::move(base));
  ASSERT_TRUE(session.solve().optimal());
  EXPECT_NEAR(session.last().objective, 4.0, 1e-9);

  // An rhs edit: x + y >= 4 -> y = 4, objective 8.
  session.model().set_rhs(r0, 4);
  expect_matches_cold(session);
  EXPECT_NEAR(session.last().objective, 8.0, 1e-9);

  // An appended column covering both rows at cost 1: w = 4, objective 4.
  const auto w = session.model().add_variable(0, 5, 1);
  session.model().add_to_row(r0, w, 1);
  session.model().add_to_row(r1, w, 1);
  expect_matches_cold(session);
  EXPECT_NEAR(session.last().objective, 4.0, 1e-9);

  // A bound edit: w = 1, y = 3, objective 7.
  session.model().set_bounds(w, 0, 1);
  expect_matches_cold(session);
  EXPECT_NEAR(session.last().objective, 7.0, 1e-9);
}

}  // namespace
}  // namespace setsched::lp

namespace setsched {
namespace {

using lp::SimplexAlgorithm;

lp::SimplexOptions lp_options(SimplexAlgorithm algorithm) {
  lp::SimplexOptions options;
  options.algorithm = algorithm;
  return options;
}

class DifferentialAssignmentLpTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialAssignmentLpTest, FeasibilityAndObjectiveMatchTableau) {
  UnrelatedGenParams p;
  p.num_jobs = 10;
  p.num_machines = 3;
  p.num_classes = 4;
  p.eligibility = 0.8;
  const Instance inst = generate_unrelated(p, GetParam() + 31);
  const double floor = assignment_lp_floor(inst);
  for (const double factor : {0.6, 0.9, 1.2, 1.8, 3.0}) {
    const double T = floor * factor;
    const auto tableau =
        solve_assignment_lp(inst, T, lp_options(SimplexAlgorithm::kTableau));
    const auto revised =
        solve_assignment_lp(inst, T, lp_options(SimplexAlgorithm::kAuto));
    ASSERT_EQ(tableau.has_value(), revised.has_value())
        << "seed " << GetParam() << " T=" << T;
    if (!tableau) continue;
    // Same minimal total fractional setup mass (the LP objective).
    double mass_tableau = 0.0, mass_revised = 0.0;
    for (MachineId i = 0; i < inst.num_machines(); ++i) {
      for (ClassId k = 0; k < inst.num_classes(); ++k) {
        mass_tableau += tableau->y(i, k);
        mass_revised += revised->y(i, k);
      }
    }
    EXPECT_NEAR(mass_tableau, mass_revised, 1e-5)
        << "seed " << GetParam() << " T=" << T;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialAssignmentLpTest,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(DifferentialRelaxedLp, VerdictsMatchTableauAcrossGuesses) {
  RestrictedGenParams p;
  p.num_jobs = 30;
  p.num_machines = 5;
  p.num_classes = 8;
  p.min_eligible = 2;
  const Instance inst = generate_restricted_class_uniform(p, 5);
  const double floor = relaxed_lp_floor(inst);
  lp::SimplexOptions tableau;
  tableau.algorithm = SimplexAlgorithm::kTableau;
  lp::SimplexOptions revised;
  revised.algorithm = SimplexAlgorithm::kAuto;
  for (const double factor : {0.7, 1.0, 1.4, 2.0}) {
    const double T = floor * factor;
    const auto a = solve_relaxed_lp(inst, T, tableau);
    const auto b = solve_relaxed_lp(inst, T, revised);
    ASSERT_EQ(a.has_value(), b.has_value()) << "T=" << T;
  }
}

TEST(DifferentialConfigLp, StatusAndCoverageMatchTableau) {
  UnrelatedGenParams p;
  p.num_jobs = 14;
  p.num_machines = 3;
  p.num_classes = 4;
  const Instance inst = generate_unrelated(p, 9);
  const double floor = assignment_lp_floor(inst);
  for (const double factor : {1.0, 2.0, 4.0}) {
    ConfigLpOptions tableau;
    tableau.simplex.algorithm = SimplexAlgorithm::kTableau;
    ConfigLpOptions revised;
    revised.simplex.algorithm = SimplexAlgorithm::kAuto;
    const ConfigLpResult a = solve_config_lp(inst, floor * factor, tableau);
    const ConfigLpResult b = solve_config_lp(inst, floor * factor, revised);
    EXPECT_EQ(a.status, b.status) << "factor " << factor;
    EXPECT_NEAR(a.coverage, b.coverage, 1e-5) << "factor " << factor;
    EXPECT_GT(b.lp_solves, 0u);
  }
}

TEST(WarmStart, ProbeAfterSeedTakesFewerIterationsThanColdOnMedium) {
  // The regression the tentpole exists for: on the unrelated-medium shape
  // (120 jobs x 10 machines, the ~1.1k-row assignment LP), a warm-started
  // probe must be strictly cheaper than solving the same probe cold.
  const ProblemInput input = generate_preset("unrelated-medium", 1);
  const Instance& inst = input.instance;
  const double hi = unrelated_upper_bound(inst);

  ParametricAssignmentLp warm_chain(inst, hi);
  ASSERT_TRUE(warm_chain.solve(hi).has_value());
  const std::size_t cold_iterations = warm_chain.session().last().iterations;
  EXPECT_GT(cold_iterations, 0u);

  const double probe = hi * 0.9;  // next T-search step stays feasible
  ASSERT_TRUE(warm_chain.solve(probe).has_value());
  const std::size_t warm_iterations = warm_chain.session().last().iterations;

  ParametricAssignmentLp cold(inst, probe);
  ASSERT_TRUE(cold.solve(probe).has_value());
  const std::size_t cold_probe_iterations = cold.session().last().iterations;

  EXPECT_LT(warm_iterations, cold_probe_iterations)
      << "warm-started probe must beat a cold solve";
  // And not marginally: the warm re-optimization should be a small fraction.
  EXPECT_LT(warm_iterations * 2, cold_probe_iterations);
}

TEST(WarmStart, SearchCountersAreReported) {
  UnrelatedGenParams p;
  p.num_jobs = 12;
  p.num_machines = 3;
  p.num_classes = 3;
  const Instance inst = generate_unrelated(p, 77);
  const LpSearchResult r = search_assignment_lp(inst, 0.05);
  EXPECT_GE(r.lp_solves, 1u);
  EXPECT_GT(r.lp_iterations, 0u);
}

TEST(ParametricAssignmentLp, MatchesOneShotSolvesAcrossProbes) {
  UnrelatedGenParams p;
  p.num_jobs = 9;
  p.num_machines = 3;
  p.num_classes = 3;
  const Instance inst = generate_unrelated(p, 4);
  const double floor = assignment_lp_floor(inst);
  const double hi = floor * 4.0;
  ParametricAssignmentLp parametric(inst, hi);
  for (const double factor : {4.0, 0.5, 1.1, 0.8, 1.6, 1.05}) {
    const double T = floor * factor;
    const auto chained = parametric.solve(T);
    const auto fresh = solve_assignment_lp(inst, T);
    ASSERT_EQ(chained.has_value(), fresh.has_value()) << "T=" << T;
    if (!chained) continue;
    double mass_chained = 0.0, mass_fresh = 0.0;
    for (MachineId i = 0; i < inst.num_machines(); ++i) {
      for (ClassId k = 0; k < inst.num_classes(); ++k) {
        mass_chained += chained->y(i, k);
        mass_fresh += fresh->y(i, k);
      }
    }
    EXPECT_NEAR(mass_chained, mass_fresh, 1e-5) << "T=" << T;
  }
  EXPECT_EQ(parametric.effort().lp_solves, 6u);
}

}  // namespace
}  // namespace setsched
