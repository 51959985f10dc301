// Suite for the unified Solver registry (src/api/): every registered solver
// is created through the registry, run end-to-end on small generated
// instances, and checked for schedule validity, makespan consistency and
// consistency with the lower bounds of core/bounds.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "api/presets.h"
#include "api/registry.h"
#include "common/check.h"
#include "core/bounds.h"
#include "core/generators.h"
#include "core/schedule.h"
#include "exact/branch_bound.h"

namespace setsched {
namespace {

SolverContext fast_context() {
  SolverContext context;
  context.seed = 17;
  context.precision = 0.1;
  context.time_limit_s = 5.0;
  return context;
}

ProblemInput small_uniform() {
  UniformGenParams params;
  params.num_jobs = 14;
  params.num_machines = 3;
  params.num_classes = 3;
  return ProblemInput::from_uniform(generate_uniform(params, 5));
}

ProblemInput small_unrelated() {
  UnrelatedGenParams params;
  params.num_jobs = 12;
  params.num_machines = 3;
  params.num_classes = 3;
  params.eligibility = 0.9;
  return ProblemInput::from_unrelated(generate_unrelated(params, 5));
}

ProblemInput small_restricted() {
  RestrictedGenParams params;
  params.num_jobs = 12;
  params.num_machines = 4;
  params.num_classes = 4;
  return ProblemInput::from_unrelated(
      generate_restricted_class_uniform(params, 5));
}

ProblemInput small_class_uniform() {
  ClassUniformGenParams params;
  params.num_jobs = 12;
  params.num_machines = 4;
  params.num_classes = 4;
  return ProblemInput::from_unrelated(
      generate_class_uniform_processing(params, 5));
}

// lower_bound(ProblemInput) is the ratio denominator of both setsched_cli
// and setsched_expt: on a uniform input the aggregate load/speed bound
// (50.587 on uniform-small seed 1) dominates the per-job bound (21.70),
// which the CLI once divided by alone.
TEST(ProblemInputBound, UsesUniformBoundOnUniformInputs) {
  const ProblemInput uniform = generate_preset("uniform-small", 1);
  ASSERT_TRUE(uniform.uniform.has_value());
  const double per_job = unrelated_lower_bound(uniform.instance);
  const double aggregate = uniform_lower_bound(*uniform.uniform);
  ASSERT_GT(aggregate, 2.0 * per_job);
  EXPECT_DOUBLE_EQ(lower_bound(uniform), aggregate);

  const ProblemInput unrelated = generate_preset("unrelated-small", 1);
  ASSERT_FALSE(unrelated.uniform.has_value());
  EXPECT_DOUBLE_EQ(lower_bound(unrelated),
                   unrelated_lower_bound(unrelated.instance));
}

TEST(SolverRegistry, RegistersEveryBuiltinSolver) {
  const auto names = SolverRegistry::global().names();
  const char* expected[] = {
      "assignment-lp",  "best-machine", "branch-and-price",
      "classuniform-3approx", "colgen", "dive-then-prove",
      "exact",          "exact-dive",   "greedy",
      "local-search",   "lpt",          "ptas",
      "restricted-2approx", "rounding",
  };
  for (const char* name : expected) {
    EXPECT_TRUE(SolverRegistry::global().contains(name)) << name;
  }
  EXPECT_EQ(names.size(), std::size(expected));
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(SolverRegistry, CreateYieldsSolverWithMatchingName) {
  for (const std::string& name : SolverRegistry::global().names()) {
    const auto solver = SolverRegistry::global().create(name);
    ASSERT_NE(solver, nullptr) << name;
    EXPECT_EQ(solver->name(), name);
  }
}

TEST(SolverRegistry, UnknownNameThrows) {
  EXPECT_THROW((void)SolverRegistry::global().create("no-such-solver"),
               CheckError);
}

TEST(SolverRegistry, DuplicateRegistrationThrows) {
  SolverRegistry registry;
  const auto factory = [] { return SolverRegistry::global().create("greedy"); };
  registry.add("x", factory);
  EXPECT_THROW(registry.add("x", factory), CheckError);
}

TEST(SolverRegistry, SupportsReflectsStructuralPreconditions) {
  const ProblemInput unrelated = small_unrelated();
  const ProblemInput uniform = small_uniform();
  const ProblemInput restricted = small_restricted();

  const auto ptas = SolverRegistry::global().create("ptas");
  EXPECT_TRUE(ptas->supports(uniform));
  EXPECT_FALSE(ptas->supports(unrelated));
  EXPECT_THROW((void)ptas->solve(unrelated, fast_context()), CheckError);

  const auto two_approx = SolverRegistry::global().create("restricted-2approx");
  EXPECT_TRUE(two_approx->supports(restricted));
  EXPECT_FALSE(two_approx->supports(unrelated));

  const auto greedy = SolverRegistry::global().create("greedy");
  EXPECT_TRUE(greedy->supports(uniform));
  EXPECT_TRUE(greedy->supports(unrelated));
}

/// Runs every supporting registered solver on `input` and checks the shared
/// contract: complete valid schedule, self-consistent makespan, and makespan
/// at or above the instance lower bound from core/bounds.h.
void run_all_solvers(const ProblemInput& input) {
  const double lower = unrelated_lower_bound(input.instance);
  ASSERT_GT(lower, 0.0);
  std::size_t ran = 0;
  for (const std::string& name : SolverRegistry::global().names()) {
    const auto solver = SolverRegistry::global().create(name);
    if (!solver->supports(input)) continue;
    SCOPED_TRACE(name);
    const ScheduleResult result = solver->solve(input, fast_context());
    EXPECT_EQ(schedule_error(input.instance, result.schedule), std::nullopt);
    EXPECT_NEAR(result.makespan, makespan(input.instance, result.schedule),
                1e-9 * std::max(1.0, result.makespan));
    EXPECT_GE(result.makespan, lower * (1.0 - 1e-12));
    ++ran;
  }
  EXPECT_GE(ran, 9u);  // everything except the structure-gated solvers
}

TEST(SolverEndToEnd, UniformInstance) { run_all_solvers(small_uniform()); }

TEST(SolverEndToEnd, UnrelatedInstance) { run_all_solvers(small_unrelated()); }

TEST(SolverEndToEnd, RestrictedInstance) { run_all_solvers(small_restricted()); }

TEST(SolverEndToEnd, ClassUniformInstance) {
  run_all_solvers(small_class_uniform());
}

TEST(SolverEndToEnd, UniformLowerBoundHoldsForUniformSolvers) {
  const ProblemInput input = small_uniform();
  const double lower = uniform_lower_bound(*input.uniform);
  for (const char* name : {"lpt", "ptas"}) {
    SCOPED_TRACE(name);
    const auto solver = SolverRegistry::global().create(name);
    const ScheduleResult result = solver->solve(input, fast_context());
    EXPECT_GE(result.makespan, lower * (1.0 - 1e-9));
  }
}

TEST(SolverEndToEnd, HeuristicsNeverBeatExact) {
  UnrelatedGenParams params;
  params.num_jobs = 8;
  params.num_machines = 3;
  params.num_classes = 2;
  const ProblemInput input =
      ProblemInput::from_unrelated(generate_unrelated(params, 11));

  ExactOptions exact_options;
  exact_options.time_limit_s = 10.0;
  const ExactResult optimum = solve_exact(input.instance, exact_options);
  ASSERT_TRUE(optimum.proven_optimal);

  for (const std::string& name : SolverRegistry::global().names()) {
    const auto solver = SolverRegistry::global().create(name);
    if (!solver->supports(input)) continue;
    SCOPED_TRACE(name);
    const ScheduleResult result = solver->solve(input, fast_context());
    EXPECT_GE(result.makespan, optimum.makespan * (1.0 - 1e-9));
  }
}

// Regression: the registry used to drop ExactResult.proven_optimal/nodes on
// the floor, so a budget-exhausted run was indistinguishable from ground
// truth downstream. The certificate must ride through SolverStats.
TEST(SolverEndToEnd, ExactRegistryEntrySurfacesCertificate) {
  const ProblemInput input = small_unrelated();

  const auto exact = SolverRegistry::global().create("exact");
  const ScheduleResult proven = exact->solve(input, fast_context());
  EXPECT_TRUE(proven.stats.proven_optimal);
  EXPECT_DOUBLE_EQ(proven.stats.gap, 0.0);
  EXPECT_GT(proven.stats.nodes, 0u);

  // A vanishing time budget must surface as an honest non-certificate (the
  // schedule is still valid), not masquerade as an optimum.
  SolverContext strangled = fast_context();
  strangled.time_limit_s = 0.0;
  const ScheduleResult aborted = exact->solve(input, strangled);
  EXPECT_FALSE(aborted.stats.proven_optimal);
  EXPECT_GT(aborted.stats.gap, 0.0);
  EXPECT_EQ(schedule_error(input.instance, aborted.schedule), std::nullopt);

  const auto dive = SolverRegistry::global().create("exact-dive");
  const ScheduleResult dived = dive->solve(input, fast_context());
  EXPECT_GE(dived.stats.gap, 0.0);
  EXPECT_GT(dived.stats.nodes, 0u);
  if (dived.stats.proven_optimal) {
    EXPECT_DOUBLE_EQ(dived.stats.gap, 0.0);
    EXPECT_NEAR(dived.makespan, proven.makespan, 1e-9);
  }
}

// `exact` proves from polished_start(), the `local-search` solver's
// schedule, so even a budget that aborts before the first node returns a
// schedule no worse than that solver's.
TEST(SolverEndToEnd, ExactNeverWorseThanLocalSearch) {
  const auto exact = SolverRegistry::global().create("exact");
  const auto local = SolverRegistry::global().create("local-search");
  SolverContext strangled = fast_context();
  strangled.time_limit_s = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const ProblemInput input = generate_preset("unrelated-midsize", seed);
    const ScheduleResult result = exact->solve(input, strangled);
    const ScheduleResult polished = local->solve(input, strangled);
    EXPECT_EQ(schedule_error(input.instance, result.schedule), std::nullopt)
        << "seed " << seed;
    EXPECT_LE(result.makespan, polished.makespan + 1e-9) << "seed " << seed;
    EXPECT_EQ(result.stats.proven_optimal, result.stats.gap == 0.0)
        << "seed " << seed;
  }
}

// Regression: randomized_rounding_config used to count its *outer*
// solve_config_lp() calls in lp_solves instead of accumulating the inner
// ConfigLpResult counters, so the colgen registry entry reported ~1 LP
// solve per run regardless of how many RMP rounds the column generation
// actually performed. The real effort must ride through SolverStats.
TEST(SolverEndToEnd, ColgenRegistryEntrySurfacesLpEffort) {
  const ProblemInput input = small_unrelated();
  const auto colgen = SolverRegistry::global().create("colgen");
  ASSERT_TRUE(colgen->supports(input));
  const ScheduleResult result = colgen->solve(input, fast_context());
  // The T-search runs several probes and each probe runs >= 1 RMP solve, so
  // the accumulated count must exceed the old "number of outer calls == a
  // handful, reported as 1 each" floor.
  EXPECT_GT(result.stats.lp_solves, 1u);
  EXPECT_GT(result.stats.lp_iterations, 0u);
}

// Regression: the restricted, class-uniform and colgen LP paths used to drop
// the LP guard counters on the way to SolverStats (every row reported 0
// while assignment-lp on the same instances reported contested solves).
// Under an armed fault plan each must surface the audits it ran.
TEST(SolverEndToEnd, GuardCountersReachStatsOnEveryLpPath) {
  SolverContext context = fast_context();
  context.fault_plan = lp::FaultPlan::parse("all@0.2", 7);
  const std::pair<const char*, const char*> cells[] = {
      {"restricted-2approx", "restricted"},
      {"classuniform-3approx", "class-uniform"},
      {"colgen", "restricted"},
  };
  for (const auto& [name, preset] : cells) {
    const ProblemInput input = generate_preset(preset, 1);
    const auto solver = SolverRegistry::global().create(name);
    ASSERT_TRUE(solver->supports(input)) << name;
    const ScheduleResult result = solver->solve(input, context);
    EXPECT_EQ(schedule_error(input.instance, result.schedule), std::nullopt)
        << name;
    EXPECT_GT(result.stats.lp_solves, 0u) << name;
    EXPECT_GT(result.stats.lp_audits_suspect, 0u) << name;
    EXPECT_GE(result.stats.lp_audits_suspect,
              result.stats.lp_recoveries + result.stats.lp_oracle_fallbacks)
        << name;
  }
}

// The branch-and-price registry entry carries the same certificate contract
// as "exact" plus the column-generation effort counters.
TEST(SolverEndToEnd, BranchAndPriceRegistryEntrySurfacesCgCounters) {
  const ProblemInput input = small_unrelated();
  const auto solver = SolverRegistry::global().create("branch-and-price");
  ASSERT_TRUE(solver->supports(input));
  const ScheduleResult result = solver->solve(input, fast_context());
  EXPECT_TRUE(result.stats.proven_optimal);
  EXPECT_DOUBLE_EQ(result.stats.gap, 0.0);
  EXPECT_GT(result.stats.nodes, 0u);
  // bound=auto always probes the config LP at the root, so pricing rounds
  // are nonzero even when it later demotes to the assignment bound.
  EXPECT_GT(result.stats.cg_pricing_rounds, 0u);
}

}  // namespace
}  // namespace setsched
