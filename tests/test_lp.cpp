#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/prng.h"
#include "lp/guard.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace setsched::lp {
namespace {

TEST(Simplex, SimpleMaximize) {
  // max 3x + 2y  s.t. x + y <= 4, x <= 2, x,y >= 0  ->  x=2, y=2, obj=10
  Model m(Objective::kMaximize);
  const auto x = m.add_variable(0, kInfinity, 3);
  const auto y = m.add_variable(0, kInfinity, 2);
  m.add_constraint({{x, 1}, {y, 1}}, Sense::kLessEqual, 4);
  m.add_constraint({{x, 1}}, Sense::kLessEqual, 2);
  const Solution sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 10.0, 1e-7);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-7);
  EXPECT_NEAR(sol.x[y], 2.0, 1e-7);
}

TEST(Simplex, SimpleMinimizeWithEquality) {
  // min x + 2y  s.t. x + y = 3, y >= 1  ->  x=2, y=1, obj=4
  Model m(Objective::kMinimize);
  const auto x = m.add_variable(0, kInfinity, 1);
  const auto y = m.add_variable(0, kInfinity, 2);
  m.add_constraint({{x, 1}, {y, 1}}, Sense::kEqual, 3);
  m.add_constraint({{y, 1}}, Sense::kGreaterEqual, 1);
  const Solution sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 4.0, 1e-7);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-7);
  EXPECT_NEAR(sol.x[y], 1.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  Model m(Objective::kMinimize);
  const auto x = m.add_variable(0, kInfinity, 1);
  m.add_constraint({{x, 1}}, Sense::kLessEqual, 1);
  m.add_constraint({{x, 1}}, Sense::kGreaterEqual, 2);
  const Solution sol = solve(m);
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleBounds) {
  Model m(Objective::kMinimize);
  const auto x = m.add_variable(0, 1, 0);
  const auto y = m.add_variable(0, 1, 0);
  m.add_constraint({{x, 1}, {y, 1}}, Sense::kGreaterEqual, 3);
  const Solution sol = solve(m);
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m(Objective::kMaximize);
  const auto x = m.add_variable(0, kInfinity, 1);
  const auto y = m.add_variable(0, kInfinity, 0);
  m.add_constraint({{x, 1}, {y, -1}}, Sense::kLessEqual, 1);
  const Solution sol = solve(m);
  EXPECT_EQ(sol.status, SolveStatus::kUnbounded);
}

TEST(Simplex, UsesVariableUpperBounds) {
  // max x + y with x,y in [0,1], x + y <= 1.5  ->  obj 1.5
  Model m(Objective::kMaximize);
  const auto x = m.add_variable(0, 1, 1);
  const auto y = m.add_variable(0, 1, 1);
  m.add_constraint({{x, 1}, {y, 1}}, Sense::kLessEqual, 1.5);
  const Solution sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 1.5, 1e-7);
}

TEST(Simplex, BoundFlipOnly) {
  // max x + y, both in [0,2], single loose constraint: both at upper bounds.
  Model m(Objective::kMaximize);
  const auto x = m.add_variable(0, 2, 1);
  const auto y = m.add_variable(0, 2, 1);
  m.add_constraint({{x, 1}, {y, 1}}, Sense::kLessEqual, 100);
  const Solution sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[x], 2.0, 1e-7);
  EXPECT_NEAR(sol.x[y], 2.0, 1e-7);
}

TEST(Simplex, NonzeroLowerBounds) {
  // min x + y, x >= 2, y in [1, 5], x + y >= 4 -> x=2, y=2? No: y can be 2.
  // Optimal: x=2, y=2, obj=4 (any split with x+y=4, x>=2, y>=1; cost equal).
  Model m(Objective::kMinimize);
  const auto x = m.add_variable(2, kInfinity, 1);
  const auto y = m.add_variable(1, 5, 1);
  m.add_constraint({{x, 1}, {y, 1}}, Sense::kGreaterEqual, 4);
  const Solution sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 4.0, 1e-7);
  EXPECT_GE(sol.x[x], 2.0 - 1e-9);
  EXPECT_GE(sol.x[y], 1.0 - 1e-9);
}

TEST(Simplex, FeasibilityProblemZeroObjective) {
  Model m(Objective::kMinimize);
  const auto x = m.add_variable(0, 1, 0);
  const auto y = m.add_variable(0, 1, 0);
  m.add_constraint({{x, 1}, {y, 1}}, Sense::kEqual, 1);
  const Solution sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[x] + sol.x[y], 1.0, 1e-7);
  EXPECT_LE(m.max_violation(sol.x), 1e-7);
}

TEST(Simplex, KnownDuals) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic example).
  // Optimum x=2, y=6, obj=36; duals y1=0, y2=1.5, y3=1.
  Model m(Objective::kMaximize);
  const auto x = m.add_variable(0, kInfinity, 3);
  const auto y = m.add_variable(0, kInfinity, 5);
  m.add_constraint({{x, 1}}, Sense::kLessEqual, 4);
  m.add_constraint({{y, 2}}, Sense::kLessEqual, 12);
  m.add_constraint({{x, 3}, {y, 2}}, Sense::kLessEqual, 18);
  const Solution sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 36.0, 1e-7);
  ASSERT_EQ(sol.duals.size(), 3u);
  EXPECT_NEAR(sol.duals[0], 0.0, 1e-7);
  EXPECT_NEAR(sol.duals[1], 1.5, 1e-7);
  EXPECT_NEAR(sol.duals[2], 1.0, 1e-7);
  // Strong duality: b^T y == objective.
  const double dual_obj =
      4 * sol.duals[0] + 12 * sol.duals[1] + 18 * sol.duals[2];
  EXPECT_NEAR(dual_obj, sol.objective, 1e-6);
}

TEST(Simplex, DegenerateLpTerminates) {
  // Classic cycling-prone LP (Beale); Bland fallback must terminate.
  Model m(Objective::kMinimize);
  const auto x1 = m.add_variable(0, kInfinity, -0.75);
  const auto x2 = m.add_variable(0, kInfinity, 150);
  const auto x3 = m.add_variable(0, kInfinity, -0.02);
  const auto x4 = m.add_variable(0, kInfinity, 6);
  m.add_constraint({{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}},
                   Sense::kLessEqual, 0);
  m.add_constraint({{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}},
                   Sense::kLessEqual, 0);
  m.add_constraint({{x3, 1}}, Sense::kLessEqual, 1);
  const Solution sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -0.05, 1e-6);
}

TEST(Simplex, MergesDuplicateEntries) {
  Model m(Objective::kMaximize);
  const auto x = m.add_variable(0, kInfinity, 1);
  // x + x <= 4  ->  x <= 2
  m.add_constraint({{x, 1}, {x, 1}}, Sense::kLessEqual, 4);
  const Solution sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[x], 2.0, 1e-7);
}

TEST(Simplex, RedundantEqualityRows) {
  Model m(Objective::kMinimize);
  const auto x = m.add_variable(0, kInfinity, 1);
  const auto y = m.add_variable(0, kInfinity, 1);
  m.add_constraint({{x, 1}, {y, 1}}, Sense::kEqual, 2);
  m.add_constraint({{x, 2}, {y, 2}}, Sense::kEqual, 4);  // redundant copy
  const Solution sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 2.0, 1e-7);
}

// ---------------------------------------------------------------------------
// Differential testing against brute-force vertex enumeration.
// ---------------------------------------------------------------------------

/// Solves square linear systems by Gaussian elimination with partial
/// pivoting; returns false if (near-)singular.
bool solve_square(std::vector<std::vector<double>> a, std::vector<double> b,
                  std::vector<double>& out) {
  const std::size_t n = b.size();
  for (std::size_t c = 0; c < n; ++c) {
    std::size_t piv = c;
    for (std::size_t r = c + 1; r < n; ++r) {
      if (std::abs(a[r][c]) > std::abs(a[piv][c])) piv = r;
    }
    if (std::abs(a[piv][c]) < 1e-9) return false;
    std::swap(a[piv], a[c]);
    std::swap(b[piv], b[c]);
    for (std::size_t r = 0; r < n; ++r) {
      if (r == c) continue;
      const double f = a[r][c] / a[c][c];
      for (std::size_t cc = c; cc < n; ++cc) a[r][cc] -= f * a[c][cc];
      b[r] -= f * b[c];
    }
  }
  out.resize(n);
  for (std::size_t c = 0; c < n; ++c) out[c] = b[c] / a[c][c];
  return true;
}

/// Brute-force LP optimum over a bounded polytope by enumerating all
/// candidate vertices (intersections of #vars tight hyperplanes drawn from
/// constraints and box bounds). Only valid for small dimensions.
double brute_force_lp(const Model& m, bool& feasible) {
  const std::size_t n = m.num_variables();
  // Hyperplanes: every constraint as equality + x_j = l_j + x_j = u_j.
  std::vector<std::vector<double>> planes;
  std::vector<double> rhs;
  for (std::size_t r = 0; r < m.num_constraints(); ++r) {
    std::vector<double> row(n, 0.0);
    for (const auto& e : m.row(r)) row[e.col] += e.value;
    planes.push_back(row);
    rhs.push_back(m.rhs(r));
  }
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> row(n, 0.0);
    row[j] = 1.0;
    planes.push_back(row);
    rhs.push_back(m.lower(j));
    if (std::isfinite(m.upper(j))) {
      planes.push_back(row);
      rhs.push_back(m.upper(j));
    }
  }

  feasible = false;
  double best = m.objective_sense() == Objective::kMaximize
                    ? -std::numeric_limits<double>::infinity()
                    : std::numeric_limits<double>::infinity();

  const std::size_t total = planes.size();
  std::vector<std::size_t> pick(n);
  // Enumerate all n-subsets of planes.
  const auto recurse = [&](auto&& self, std::size_t start,
                           std::size_t depth) -> void {
    if (depth == n) {
      std::vector<std::vector<double>> a(n);
      std::vector<double> b(n);
      for (std::size_t t = 0; t < n; ++t) {
        a[t] = planes[pick[t]];
        b[t] = rhs[pick[t]];
      }
      std::vector<double> x;
      if (!solve_square(a, b, x)) return;
      if (m.max_violation(x) > 1e-7) return;
      feasible = true;
      const double obj = m.objective_value(x);
      if (m.objective_sense() == Objective::kMaximize) {
        best = std::max(best, obj);
      } else {
        best = std::min(best, obj);
      }
      return;
    }
    for (std::size_t p = start; p < total; ++p) {
      pick[depth] = p;
      self(self, p + 1, depth + 1);
    }
  };
  recurse(recurse, 0, 0);
  return best;
}

class RandomLpTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomLpTest, MatchesBruteForceVertexEnumeration) {
  Xoshiro256 rng(GetParam());
  const std::size_t nvars = 2 + rng.next_below(2);  // 2..3
  const std::size_t ncons = 2 + rng.next_below(3);  // 2..4

  Model m(rng.next_bernoulli(0.5) ? Objective::kMaximize
                                  : Objective::kMinimize);
  for (std::size_t j = 0; j < nvars; ++j) {
    const double ub = rng.next_real(0.5, 4.0);
    m.add_variable(0, ub, rng.next_real(-3, 3));
  }
  for (std::size_t r = 0; r < ncons; ++r) {
    std::vector<Entry> row;
    for (std::size_t j = 0; j < nvars; ++j) {
      row.push_back({j, rng.next_real(0.1, 2.0)});  // nonneg coefficients
    }
    // rhs positive -> origin feasible -> LP feasible and bounded (box).
    m.add_constraint(std::move(row), Sense::kLessEqual, rng.next_real(0.5, 5.0));
  }

  bool feasible = false;
  const double expected = brute_force_lp(m, feasible);
  ASSERT_TRUE(feasible);

  const Solution sol = solve(m);
  ASSERT_TRUE(sol.optimal()) << "seed " << GetParam();
  EXPECT_NEAR(sol.objective, expected, 1e-5) << "seed " << GetParam();
  EXPECT_LE(m.max_violation(sol.x), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest,
                         ::testing::Range<std::uint64_t>(0, 40));

class RandomEqualityLpTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomEqualityLpTest, PhaseOneFindsFeasiblePoints) {
  // Build LPs known to be feasible: pick a random point in the box, derive
  // equality rhs from it. Checks two-phase handling of equality rows.
  Xoshiro256 rng(GetParam() + 1000);
  const std::size_t nvars = 3 + rng.next_below(3);  // 3..5
  const std::size_t ncons = 1 + rng.next_below(3);  // 1..3

  Model m(Objective::kMinimize);
  std::vector<double> point(nvars);
  for (std::size_t j = 0; j < nvars; ++j) {
    m.add_variable(0, 2.0, rng.next_real(-1, 1));
    point[j] = rng.next_real(0, 2);
  }
  for (std::size_t r = 0; r < ncons; ++r) {
    std::vector<Entry> row;
    double rhs = 0;
    for (std::size_t j = 0; j < nvars; ++j) {
      const double coef = rng.next_real(-2, 2);
      row.push_back({j, coef});
      rhs += coef * point[j];
    }
    m.add_constraint(std::move(row), Sense::kEqual, rhs);
  }

  const Solution sol = solve(m);
  ASSERT_TRUE(sol.optimal()) << "seed " << GetParam();
  EXPECT_LE(m.max_violation(sol.x), 1e-6);
  EXPECT_LE(sol.objective, m.objective_value(point) + 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEqualityLpTest,
                         ::testing::Range<std::uint64_t>(0, 30));

class AuditedRandomLpTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AuditedRandomLpTest, TableauOptimaAuditClean) {
  // Random mixed LPs solved by the tableau oracle: an optimal answer is
  // feasible, and its basis, duals and objective pass the residual audit.
  Xoshiro256 rng(GetParam() * 7919 + 13);
  const std::size_t nvars = 4 + rng.next_below(6);
  const std::size_t ncons = 2 + rng.next_below(5);

  Model m(rng.next_bernoulli(0.5) ? Objective::kMaximize
                                  : Objective::kMinimize);
  std::vector<double> point(nvars);
  for (std::size_t j = 0; j < nvars; ++j) {
    m.add_variable(0, rng.next_bernoulli(0.7) ? rng.next_real(0.5, 3.0)
                                              : kInfinity,
                   rng.next_real(-2, 2));
    point[j] = rng.next_real(0, 0.5);
  }
  for (std::size_t r = 0; r < ncons; ++r) {
    std::vector<Entry> row;
    double activity = 0.0;
    for (std::size_t j = 0; j < nvars; ++j) {
      const double coef = rng.next_real(-1.0, 2.0);
      row.push_back({j, coef});
      activity += coef * point[j];
    }
    // Keep `point` feasible so the LP is feasible; cap variables to keep the
    // problem bounded when maximizing.
    const auto sense = rng.next_bernoulli(0.5) ? Sense::kLessEqual : Sense::kEqual;
    m.add_constraint(std::move(row), sense,
                     sense == Sense::kEqual ? activity
                                            : activity + rng.next_real(0, 2));
  }

  const Solution sol = solve_tableau(m);
  if (sol.optimal()) {
    EXPECT_LE(m.max_violation(sol.x), 1e-6) << "seed " << GetParam();
    const AuditReport report = audit_solution(m, sol);
    EXPECT_EQ(report.verdict, AuditVerdict::kClean)
        << "seed " << GetParam() << ": "
        << (report.complaint != nullptr ? report.complaint : "(none)");
  } else {
    EXPECT_TRUE(sol.status == SolveStatus::kUnbounded ||
                sol.status == SolveStatus::kInfeasible);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuditedRandomLpTest,
                         ::testing::Range<std::uint64_t>(0, 40));

TEST(Simplex, BasicSolutionHasFewFractionals) {
  // Extreme-point property: strictly-interior variables are basic, and there
  // are at most num_constraints basic variables.
  Xoshiro256 rng(5);
  Model m(Objective::kMaximize);
  const std::size_t nvars = 12;
  for (std::size_t j = 0; j < nvars; ++j) {
    m.add_variable(0, 1, rng.next_real(0.1, 1.0));
  }
  for (std::size_t r = 0; r < 3; ++r) {
    std::vector<Entry> row;
    for (std::size_t j = 0; j < nvars; ++j) {
      row.push_back({j, rng.next_real(0.1, 1.0)});
    }
    m.add_constraint(std::move(row), Sense::kLessEqual, 2.0);
  }
  const Solution sol = solve(m);
  ASSERT_TRUE(sol.optimal());
  std::size_t interior = 0;
  for (std::size_t j = 0; j < nvars; ++j) {
    if (sol.x[j] > 1e-7 && sol.x[j] < 1 - 1e-7) ++interior;
  }
  EXPECT_LE(interior, m.num_constraints());
}

}  // namespace
}  // namespace setsched::lp
