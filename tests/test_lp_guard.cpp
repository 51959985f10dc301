// Suite for the numerical safety net (lp/guard.h + lp/fault.h): residual
// audits classify hand-corrupted solutions, the fault-injection plan parses
// and round-trips, and — the core contract — every injected fault either
// leaves the answer bit-compatible with the fault-free reference or walks
// the recovery escalation ladder until it does.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/prng.h"
#include "core/generators.h"
#include "core/schedule.h"
#include "exact/branch_bound.h"
#include "lp/fault.h"
#include "lp/guard.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace setsched::lp {
namespace {

// --- fault plan parsing ----------------------------------------------------

TEST(FaultPlan, ParsesAllWithRate) {
  const FaultPlan plan = FaultPlan::parse("all@0.5", 42);
  EXPECT_TRUE(plan.any());
  EXPECT_DOUBLE_EQ(plan.rate, 0.5);
  EXPECT_EQ(plan.seed, 42u);
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    EXPECT_TRUE(plan.is_armed(static_cast<FaultKind>(k))) << k;
  }
}

TEST(FaultPlan, ParsesKindListAndRoundTripsSpec) {
  const FaultPlan plan = FaultPlan::parse("eta-flip,ftran-nan@0.01", 7);
  EXPECT_TRUE(plan.is_armed(FaultKind::kEtaFlip));
  EXPECT_TRUE(plan.is_armed(FaultKind::kFtranNan));
  EXPECT_FALSE(plan.is_armed(FaultKind::kFactorPerturb));
  EXPECT_FALSE(plan.is_armed(FaultKind::kSkipRefactor));
  EXPECT_FALSE(plan.is_armed(FaultKind::kStaleDevex));

  // spec() is the canonical round-trip: re-parsing reproduces the plan.
  const FaultPlan again = FaultPlan::parse(plan.spec(), 7);
  EXPECT_DOUBLE_EQ(again.rate, plan.rate);
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    EXPECT_EQ(again.armed[k], plan.armed[k]) << k;
  }
}

TEST(FaultPlan, DefaultRateAppliesWithoutSuffix) {
  const FaultPlan plan = FaultPlan::parse("stale-devex", 1);
  EXPECT_TRUE(plan.is_armed(FaultKind::kStaleDevex));
  EXPECT_GT(plan.rate, 0.0);
  EXPECT_LE(plan.rate, 1.0);
}

TEST(FaultPlan, RejectsUnknownKindsAndBadRates) {
  EXPECT_THROW((void)FaultPlan::parse("warp-core-breach@0.1", 1), CheckError);
  EXPECT_THROW((void)FaultPlan::parse("all@0", 1), CheckError);
  EXPECT_THROW((void)FaultPlan::parse("all@1.5", 1), CheckError);
  EXPECT_THROW((void)FaultPlan::parse("all@-0.1", 1), CheckError);
}

TEST(FaultPlan, ZeroRateDisarms) {
  FaultPlan plan;
  plan.arm(FaultKind::kEtaFlip);
  plan.rate = 0.0;
  EXPECT_FALSE(plan.any());
  EXPECT_FALSE(plan.is_armed(FaultKind::kEtaFlip));
  FaultInjector injector(&plan);
  EXPECT_FALSE(injector.armed());
}

TEST(FaultInjector, FiresDeterministicallyPerSeed) {
  FaultPlan plan = FaultPlan::parse("all@0.5", 99);
  const auto draw = [&plan] {
    FaultInjector injector(&plan);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(injector.fire(FaultKind::kEtaFlip));
    }
    return fired;
  };
  EXPECT_EQ(draw(), draw());  // same plan -> same stream
  FaultPlan other = plan;
  other.seed = 100;
  FaultInjector injector(&other);
  std::vector<bool> fired;
  for (int i = 0; i < 64; ++i) {
    fired.push_back(injector.fire(FaultKind::kEtaFlip));
  }
  EXPECT_NE(fired, draw());  // different seed -> different stream
}

// --- residual audits on hand-built solutions -------------------------------

/// min x + 2y  s.t. x + y = 3, y >= 1  ->  x=2, y=1, obj=4.
Model reference_model() {
  Model m(Objective::kMinimize);
  const auto x = m.add_variable(0, kInfinity, 1);
  const auto y = m.add_variable(0, kInfinity, 2);
  m.add_constraint({{x, 1}, {y, 1}}, Sense::kEqual, 3);
  m.add_constraint({{y, 1}}, Sense::kGreaterEqual, 1);
  return m;
}

TEST(Guard, CleanSolveAuditsClean) {
  const Model m = reference_model();
  const SimplexOptions options;
  for (const auto algorithm :
       {SimplexAlgorithm::kTableau, SimplexAlgorithm::kAuto}) {
    SimplexOptions opt = options;
    opt.algorithm = algorithm;
    const Solution sol = solve(m, opt);
    ASSERT_TRUE(sol.optimal());
    const AuditReport report = audit_solution(m, sol);
    EXPECT_EQ(report.verdict, AuditVerdict::kClean)
        << (report.complaint != nullptr ? report.complaint : "(none)");
  }
}

TEST(Guard, GradedPrimalCorruptionEscalatesTheVerdict) {
  const Model m = reference_model();
  const SimplexOptions options;
  Solution sol = solve(m, options);
  ASSERT_TRUE(sol.optimal());

  // A violation just past kAuditSlack (1e-6): suspect, not failed.
  Solution tampered = sol;
  tampered.x[0] += 1e-3;
  AuditReport report = audit_solution(m, tampered);
  EXPECT_EQ(report.verdict, AuditVerdict::kSuspect);
  EXPECT_NE(report.complaint, nullptr);

  // A violation 1e6x past the slack: failed outright.
  tampered = sol;
  tampered.x[0] += 10.0;
  report = audit_solution(m, tampered);
  EXPECT_EQ(report.verdict, AuditVerdict::kFailed);

  // NaN anywhere is an automatic fail.
  tampered = sol;
  tampered.x[0] = std::numeric_limits<double>::quiet_NaN();
  report = audit_solution(m, tampered);
  EXPECT_EQ(report.verdict, AuditVerdict::kFailed);
}

TEST(Guard, ObjectiveDisagreementIsContested) {
  const Model m = reference_model();
  const SimplexOptions options;
  Solution sol = solve(m, options);
  ASSERT_TRUE(sol.optimal());
  sol.objective += 1.0;  // primal/dual objective identity breaks
  const AuditReport report = audit_solution(m, sol);
  EXPECT_NE(report.verdict, AuditVerdict::kClean);
}

TEST(Guard, IterationLimitIsSkippedNotContested) {
  const Model m = reference_model();
  Solution sol;
  sol.status = SolveStatus::kIterationLimit;
  const AuditReport report = audit_solution(m, sol);
  EXPECT_EQ(report.verdict, AuditVerdict::kSkipped);
}

TEST(Guard, UnboundedClaimIsAlwaysSuspect) {
  const Model m = reference_model();
  Solution sol;
  sol.status = SolveStatus::kUnbounded;
  const AuditReport report = audit_solution(m, sol);
  EXPECT_EQ(report.verdict, AuditVerdict::kSuspect);
}

TEST(Guard, InfeasibilityClaimFromFaultedSolveIsSuspect) {
  // Sign-consistent duals are weak evidence; when a fault actually fired in
  // the solve, the claim must walk the ladder rather than prune a search.
  const Model m = reference_model();
  Solution sol;
  sol.status = SolveStatus::kInfeasible;
  sol.duals = {0.0, 0.0};  // perfectly sign-consistent
  sol.faults_injected = 1;
  const AuditReport report = audit_solution(m, sol);
  EXPECT_EQ(report.verdict, AuditVerdict::kSuspect);
}

TEST(Guard, FaultFreeInfeasibilityClaimCarriesNoDualsAndIsSkipped) {
  // The revised simplex exports no dual ray with an infeasibility claim, so
  // a fault-free claim leaves the audit nothing to check: it is `skipped`,
  // not contested, and LpBounder::feasible prunes on it. (Exporting the ray
  // would let the audit check it.)
  Model m(Objective::kMinimize);
  const auto x = m.add_variable(0, 1, 0);
  const auto y = m.add_variable(0, 1, 0);
  m.add_constraint({{x, 1}, {y, 1}}, Sense::kGreaterEqual, 3);
  for (const SimplexAlgorithm algorithm :
       {SimplexAlgorithm::kAuto, SimplexAlgorithm::kDual}) {
    SimplexOptions opt;
    opt.algorithm = algorithm;
    opt.guard = true;
    const Solution sol = solve(m, opt);
    EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
    EXPECT_TRUE(sol.duals.empty());
    EXPECT_EQ(sol.audit_verdict, AuditVerdict::kSkipped);
    EXPECT_FALSE(sol.audit_contested());
  }
}

// --- the recovery ladder under injection -----------------------------------

/// Random feasible bounded LP in the style of test_lp.cpp: box variables,
/// nonnegative <= rows, origin feasible. Large enough that the revised
/// solver pivots a few times (injection needs opportunities to fire).
Model random_lp(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const std::size_t nvars = 5 + rng.next_below(3);
  const std::size_t ncons = 5 + rng.next_below(3);
  Model m(rng.next_bernoulli(0.5) ? Objective::kMaximize
                                  : Objective::kMinimize);
  for (std::size_t j = 0; j < nvars; ++j) {
    m.add_variable(0, rng.next_real(0.5, 4.0), rng.next_real(-3, 3));
  }
  for (std::size_t r = 0; r < ncons; ++r) {
    std::vector<Entry> row;
    for (std::size_t j = 0; j < nvars; ++j) {
      row.push_back({j, rng.next_real(0.1, 2.0)});
    }
    m.add_constraint(std::move(row), Sense::kLessEqual,
                     rng.next_real(0.5, 5.0));
  }
  return m;
}

/// Differential per fault kind: a guarded injected solve must reproduce the
/// un-injected tableau oracle whenever it claims optimality, and across the
/// seed sweep the ladder must both see faults and recover from them.
class FaultDifferentialTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FaultDifferentialTest, GuardedInjectedSolveMatchesOracle) {
  const FaultKind kind = static_cast<FaultKind>(GetParam());
  std::size_t total_injected = 0;
  std::size_t total_recovered = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Model m = random_lp(seed);
    FaultPlan plan;
    plan.arm(kind);
    plan.rate = 0.25;
    plan.seed = seed * 7919;
    SimplexOptions opt;
    opt.guard = true;
    opt.fault_plan = &plan;
    // Give the rarer fault sites opportunities on these small LPs: Devex
    // updates only exist in the dual simplex's row pricing, so that leg
    // re-solves warm from the optimum of the looser model — shrinking every
    // upper bound leaves the basis primal-infeasible but dual-feasible, the
    // state the dual loop re-optimizes. Periodic refactorization triggers
    // only fire when the interval is shorter than the pivot count.
    Basis loose;
    if (kind == FaultKind::kStaleDevex) {
      loose = solve(m).basis;
      for (std::size_t j = 0; j < m.num_variables(); ++j) {
        m.set_bounds(j, m.lower(j), m.upper(j) * 0.25);
      }
      opt.warm_start = &loose;
    }
    if (kind == FaultKind::kSkipRefactor) opt.refactor_interval = 2;
    const Solution reference = solve_tableau(m);
    ASSERT_TRUE(reference.optimal()) << "seed " << seed;
    const Solution sol = solve(m, opt);

    total_injected += sol.faults_injected;
    total_recovered += sol.recoveries + sol.oracle_fallbacks;
    ASSERT_TRUE(sol.optimal())
        << "seed " << seed << " kind " << fault_kind_name(kind);
    EXPECT_FALSE(sol.audit_contested());
    EXPECT_NEAR(sol.objective, reference.objective, 1e-5)
        << "seed " << seed << " kind " << fault_kind_name(kind);
    EXPECT_LE(m.max_violation(sol.x), 1e-6);
  }
  // The sweep is meaningless if nothing ever fired; and every fault the
  // audit catches must be cleared by the ladder (checked per-solve above).
  EXPECT_GT(total_injected, 0u) << fault_kind_name(kind);
  (void)total_recovered;  // informational; some kinds self-heal benignly
}

INSTANTIATE_TEST_SUITE_P(Kinds, FaultDifferentialTest,
                         ::testing::Range<std::size_t>(0, kFaultKindCount));

TEST(Guard, LadderRecoversAndCountsUnderHeavyInjection) {
  // Heavy NaN injection: essentially every audit is contested, so the sweep
  // must show recoveries (rung 1/2) actually happening.
  std::size_t recovered = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Model m = random_lp(seed);
    const Solution reference = solve_tableau(m);
    FaultPlan plan = FaultPlan::parse("ftran-nan@0.5", seed);
    SimplexOptions opt;
    opt.guard = true;
    opt.fault_plan = &plan;
    const Solution sol = solve(m, opt);
    ASSERT_TRUE(sol.optimal()) << "seed " << seed;
    EXPECT_FALSE(sol.audit_contested());
    EXPECT_NEAR(sol.objective, reference.objective, 1e-5) << "seed " << seed;
    if (sol.recoveries + sol.oracle_fallbacks > 0) {
      EXPECT_GE(sol.audits_suspect, 1u);
      ++recovered;
    }
  }
  EXPECT_GT(recovered, 0u);
}

TEST(Guard, UnboundedLpReachesTheLastRungAndStaysContested) {
  // Every unboundedness claim is contested, so a genuinely unbounded LP
  // walks the whole ladder: the primary solve leaves no basis (rung 1 is
  // skipped), the cold re-solve is contested again, and rung 3's answer is
  // returned contested for the caller to demote.
  Model m(Objective::kMaximize);
  const auto x = m.add_variable(0, kInfinity, 1);
  const auto y = m.add_variable(0, kInfinity, 0);
  m.add_constraint({{x, 1}, {y, -1}}, Sense::kLessEqual, 1);
  SimplexOptions opt;
  opt.guard = true;
  const Solution sol = solve(m, opt);
  EXPECT_EQ(sol.status, SolveStatus::kUnbounded);
  EXPECT_TRUE(sol.audit_contested());
  EXPECT_EQ(sol.audits_suspect, 2u);
  EXPECT_EQ(sol.recoveries, 0u);
  EXPECT_EQ(sol.oracle_fallbacks, 1u);
}

TEST(Guard, GuardOffIsStatusQuo) {
  // guard=false must leave the verdict kSkipped and never touch the ladder
  // counters — the zero-overhead contract of the default path.
  const Model m = random_lp(3);
  const Solution sol = solve(m, SimplexOptions{});
  EXPECT_EQ(sol.audit_verdict, AuditVerdict::kSkipped);
  EXPECT_EQ(sol.audits_suspect, 0u);
  EXPECT_EQ(sol.recoveries, 0u);
  EXPECT_EQ(sol.oracle_fallbacks, 0u);
  EXPECT_EQ(sol.faults_injected, 0u);
}

// --- end-to-end: exact search under injection ------------------------------

/// Reference: plain exhaustive enumeration, no pruning (test_exact.cpp).
double enumerate_opt(const Instance& inst) {
  const std::size_t n = inst.num_jobs();
  const std::size_t mm = inst.num_machines();
  Schedule s = Schedule::empty(n);
  double best = kInfinity;
  const auto recurse = [&](auto&& self, std::size_t depth) -> void {
    if (depth == n) {
      if (!schedule_error(inst, s).has_value()) {
        best = std::min(best, makespan(inst, s));
      }
      return;
    }
    for (MachineId i = 0; i < mm; ++i) {
      if (!inst.eligible(i, depth)) continue;
      s.assignment[depth] = i;
      self(self, depth + 1);
      s.assignment[depth] = kUnassigned;
    }
  };
  recurse(recurse, 0);
  return best;
}

// The tentpole acceptance check: branch-and-bound with LP bounds, audited
// duals, and live fault injection must still reproduce brute force exactly —
// a corrupted bound may cost time (ladder solves) but never optimality, and
// `proven` may only be claimed with gap == 0.
TEST(Guard, ExactSearchUnderInjectionMatchesEnumeration) {
  std::size_t total_guard_activity = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    UnrelatedGenParams p;
    p.num_jobs = 7;
    p.num_machines = 3;
    p.num_classes = 3;
    p.eligibility = 0.8;
    const Instance inst = generate_unrelated(p, seed);
    const double reference = enumerate_opt(inst);

    const FaultPlan plan = FaultPlan::parse("all@0.02", seed * 31);
    ExactOptions opt;
    opt.use_lp_bounds = true;
    opt.simplex.fault_plan = &plan;
    const ExactResult r = solve_exact(inst, opt);

    EXPECT_TRUE(r.proven_optimal) << "seed " << seed;
    EXPECT_NEAR(r.makespan, reference, 1e-9) << "seed " << seed;
    EXPECT_FALSE(schedule_error(inst, r.schedule).has_value());
    if (r.proven_optimal) {
      EXPECT_DOUBLE_EQ(r.gap, 0.0);
    }
    total_guard_activity +=
        r.lp_audits_suspect + r.lp_recoveries + r.lp_oracle_fallbacks;
  }
  // With every kind armed across 10 seeds, the safety net must have had
  // something to do — otherwise this test exercises nothing.
  EXPECT_GT(total_guard_activity, 0u);
}

}  // namespace
}  // namespace setsched::lp
