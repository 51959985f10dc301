// The eta file's fill trigger on the largest LP of the tier-1 suites: the
// T-search of search_assignment_lp on the ~1.1k-row unrelated-medium
// assignment LP, every probe checked against the dense tableau oracle. It is
// the longest test of the LP suites, so it is a suite of its own, which
// ctest schedules beside the rest of test_lp_revised.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "api/presets.h"
#include "core/bounds.h"
#include "core/counters.h"
#include "lp/simplex.h"
#include "unrelated/assignment_lp.h"

namespace setsched {
namespace {

using lp::SimplexAlgorithm;

TEST(FillTrigger, RefactorizesATSearchChainByFillAlone) {
  // The T-search of search_assignment_lp on the ~1.1k-row unrelated-medium
  // relaxation, with refactor_interval out of reach: only the eta file's
  // fill can trigger a refactorization, and every probe must still match
  // the dense tableau's verdict and objective.
  const ProblemInput input = generate_preset("unrelated-medium", 1);
  const Instance& inst = input.instance;
  double lo = std::max(assignment_lp_floor(inst), unrelated_lower_bound(inst));
  double hi = unrelated_upper_bound(inst);
  lp::SimplexOptions options;
  options.refactor_interval = 1'000'000;
  ParametricAssignmentLp chain(inst, hi, options);
  lp::SimplexOptions tableau;
  tableau.algorithm = SimplexAlgorithm::kTableau;
  const auto probe = [&](double T) {
    const bool feasible = chain.solve(T).has_value();
    const lp::Solution& sol = chain.session().last();
    const lp::Solution oracle = lp::solve(chain.session().model(), tableau);
    EXPECT_EQ(sol.status, oracle.status) << "T=" << T;
    if (oracle.optimal() && sol.optimal()) {
      EXPECT_NEAR(sol.objective, oracle.objective,
                  1e-6 * std::max(1.0, std::abs(oracle.objective)))
          << "T=" << T;
    }
    return feasible;
  };
  ASSERT_TRUE(probe(hi));
  if (!probe(lo)) {
    while (hi / lo > 1.05) {
      const double mid = std::sqrt(lo * hi);
      if (probe(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
  }
  const EffortCounters& effort = chain.effort();
  EXPECT_GT(effort.lp_factorizations, effort.lp_solves)
      << "the fill trigger never refactorized";
  // Threshold pivoting toward sparse rows: largest-magnitude pivots gave
  // ~13.7k L+U entries per factorization on this T-search, this rule ~6.0k.
  ASSERT_GT(effort.lp_factorizations, 0u);
  EXPECT_LE(effort.lp_lu_nnz / effort.lp_factorizations, 7'500u);
}

}  // namespace
}  // namespace setsched
