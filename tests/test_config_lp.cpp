#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "api/presets.h"
#include "colgen/coverage_master.h"
#include "colgen/config_lp.h"
#include "core/bounds.h"
#include "core/generators.h"
#include "core/io.h"
#include "exact/branch_bound.h"

namespace setsched {
namespace {

TEST(ConfigLp, FeasibleAtGenerousT) {
  UnrelatedGenParams p;
  p.num_jobs = 12;
  p.num_machines = 3;
  p.num_classes = 3;
  const Instance inst = generate_unrelated(p, 1);
  const double T = unrelated_upper_bound(inst) * 1.5;
  const ConfigLpResult r = solve_config_lp(inst, T);
  EXPECT_EQ(r.status, ConfigLpStatus::kFeasible);
  EXPECT_GT(r.cg_columns, 0u);
}

TEST(ConfigLp, InfeasibleWellBelowFloor) {
  UnrelatedGenParams p;
  p.num_jobs = 12;
  p.num_machines = 3;
  p.num_classes = 3;
  const Instance inst = generate_unrelated(p, 2);
  const double T = assignment_lp_floor(inst) * 0.4;
  const ConfigLpResult r = solve_config_lp(inst, T);
  EXPECT_EQ(r.status, ConfigLpStatus::kInfeasibleAtGrid);
  EXPECT_LT(r.coverage, static_cast<double>(inst.num_jobs()));
}

void expect_valid_fractional(const Instance& inst,
                             const FractionalAssignment& f, double T) {
  const double tol = 1e-5;
  for (JobId j = 0; j < inst.num_jobs(); ++j) {
    double total = 0.0;
    for (MachineId i = 0; i < inst.num_machines(); ++i) {
      const double x = f.x(i, j);
      if (x > tol) {
        EXPECT_TRUE(inst.eligible(i, j));
        EXPECT_LE(x, f.y(i, inst.job_class(j)) + tol);  // (4)
      }
      total += x;
    }
    EXPECT_NEAR(total, 1.0, 1e-4) << "job " << j;        // (2)
  }
  for (MachineId i = 0; i < inst.num_machines(); ++i) {   // (1)
    double load = 0.0;
    for (JobId j = 0; j < inst.num_jobs(); ++j) {
      if (f.x(i, j) > 0.0) load += f.x(i, j) * inst.proc(i, j);
    }
    for (ClassId k = 0; k < inst.num_classes(); ++k) {
      if (f.y(i, k) > 0.0 && inst.setup(i, k) < kInfinity) {
        load += f.y(i, k) * inst.setup(i, k);
      }
    }
    EXPECT_LE(load, T * (1 + 1e-3)) << "machine " << i;
  }
}

class ConfigLpRecoveryTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfigLpRecoveryTest, RecoveredSolutionSatisfiesAssignmentLp) {
  UnrelatedGenParams p;
  p.num_jobs = 14;
  p.num_machines = 4;
  p.num_classes = 4;
  const Instance inst = generate_unrelated(p, GetParam());
  const double T = unrelated_upper_bound(inst);
  const ConfigLpResult r = solve_config_lp(inst, T);
  ASSERT_EQ(r.status, ConfigLpStatus::kFeasible) << "seed " << GetParam();
  expect_valid_fractional(inst, r.fractional, T);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigLpRecoveryTest,
                         ::testing::Range<std::uint64_t>(0, 10));

class ConfigLpVsDirectTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfigLpVsDirectTest, GridFeasibleImpliesDirectLpFeasible) {
  // The configuration LP is at least as strong as ILP-UM's relaxation; a
  // grid-feasible verdict must therefore be accepted by the direct LP.
  UnrelatedGenParams p;
  p.num_jobs = 10;
  p.num_machines = 3;
  p.num_classes = 3;
  const Instance inst = generate_unrelated(p, GetParam() + 20);
  for (const double f : {1.0, 1.4}) {
    const double T = assignment_lp_floor(inst) * f * 1.6;
    const ConfigLpResult cfg = solve_config_lp(inst, T);
    if (cfg.status == ConfigLpStatus::kFeasible) {
      EXPECT_TRUE(solve_assignment_lp(inst, T * (1 + 1e-6)).has_value())
          << "seed " << GetParam() << " T " << T;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigLpVsDirectTest,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(ConfigLp, ParallelPricingMatchesSequential) {
  UnrelatedGenParams p;
  p.num_jobs = 16;
  p.num_machines = 4;
  p.num_classes = 4;
  const Instance inst = generate_unrelated(p, 30);
  const double T = unrelated_upper_bound(inst);
  ThreadPool pool(3);
  ConfigLpOptions seq;
  ConfigLpOptions par;
  par.pool = &pool;
  const ConfigLpResult a = solve_config_lp(inst, T, seq);
  const ConfigLpResult b = solve_config_lp(inst, T, par);
  EXPECT_EQ(a.status, b.status);
  EXPECT_NEAR(a.coverage, b.coverage, 1e-6);
}

TEST(ConfigRounding, ProducesValidSchedule) {
  UnrelatedGenParams p;
  p.num_jobs = 18;
  p.num_machines = 4;
  p.num_classes = 5;
  const Instance inst = generate_unrelated(p, 40);
  RoundingOptions ropt;
  ropt.seed = 3;
  ropt.search_precision = 0.1;
  const RoundingResult r = randomized_rounding_config(inst, ropt);
  EXPECT_FALSE(schedule_error(inst, r.schedule).has_value());
  EXPECT_GT(r.lp_T, 0.0);
  EXPECT_GE(r.makespan + 1e-9, r.lp_lower_bound);
}

// No job has a positive processing time, so the setup-blind LP floor is 0:
// the geometric search must start from the setup-aware bound instead (it
// once looped on mid = sqrt(0 * hi) forever), and with no setups either the
// best-machine schedule is returned without pricing at T = 0.
TEST(ConfigRounding, ZeroProcessingTimesMatchTheProvenOptimum) {
  const std::string zero_proc =
      "setsched unrelated 1\n2 3 2\n0 1 1\n0 0 0\n0 0 0\n1 2\n3 1\n";
  const std::string all_zero =
      "setsched unrelated 1\n2 3 2\n0 1 1\n0 0 0\n0 0 0\n0 0\n0 0\n";
  for (const std::string& text : {zero_proc, all_zero}) {
    std::istringstream is(text);
    const Instance inst = load_instance(is);
    const ExactResult optimum = solve_exact(inst);
    ASSERT_TRUE(optimum.proven_optimal);
    const RoundingResult r = randomized_rounding_config(inst);
    EXPECT_FALSE(schedule_error(inst, r.schedule).has_value());
    EXPECT_EQ(r.makespan, makespan(inst, r.schedule));
    EXPECT_EQ(r.makespan, optimum.makespan);
  }
}

TEST(ConfigRounding, ComparableToDirectLpRounding) {
  UnrelatedGenParams p;
  p.num_jobs = 14;
  p.num_machines = 3;
  p.num_classes = 4;
  const Instance inst = generate_unrelated(p, 50);
  RoundingOptions ropt;
  ropt.seed = 9;
  ropt.search_precision = 0.08;
  const RoundingResult direct = randomized_rounding(inst, ropt);
  const RoundingResult config = randomized_rounding_config(inst, ropt);
  // Both target the same fractional polytope (config at a conservative
  // grid); results should be within a small factor of each other.
  EXPECT_LE(config.makespan, 2.0 * direct.makespan + 1e-9);
  EXPECT_LE(direct.makespan, 2.0 * config.makespan + 1e-9);
}

// Regression: randomized_rounding_config used to set lp_solves to the
// number of *outer* solve_config_lp calls (one per T-search probe), dropping
// the inner per-round RMP counters on the floor. With the bisection disabled
// (huge search_precision) the T-search makes exactly one outer call at hi,
// so the reported effort must equal that call's inner counters — the old
// code reported exactly 1.
TEST(ConfigRounding, LpEffortCountersAccumulateInnerRounds) {
  UnrelatedGenParams p;
  p.num_jobs = 16;
  p.num_machines = 4;
  p.num_classes = 4;
  const Instance inst = generate_unrelated(p, 60);
  const double lo = assignment_lp_floor(inst);
  const double hi = std::max(lo, unrelated_upper_bound(inst));
  const ConfigLpResult probe = solve_config_lp(inst, hi);
  // Preconditions for the equality below: the first probe is already
  // feasible (no widening) and column generation ran more than one round.
  ASSERT_EQ(probe.status, ConfigLpStatus::kFeasible);
  ASSERT_GT(probe.lp_solves, 1u);
  ASSERT_GT(probe.lp_iterations, 0u);

  RoundingOptions ropt;
  ropt.seed = 1;
  ropt.search_precision = 1e9;  // hi/lo < 1 + precision: no bisection probes
  const RoundingResult r = randomized_rounding_config(inst, ropt);
  EXPECT_EQ(r.lp_solves, probe.lp_solves);
  EXPECT_EQ(r.lp_iterations, probe.lp_iterations);
}

/// (preset, seed) cells of the one-pool T-search checks.
class ConfigLpSearchTest
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint64_t>> {
 protected:
  [[nodiscard]] Instance instance() const {
    return generate_preset(std::get<0>(GetParam()), std::get<1>(GetParam()))
        .instance;
  }
};

// The T-search runs every probe on one master, retuned per T. With
// ColumnFit::kGrid its pool only offers columns the pricer at T could emit,
// so a converged probe decides the grid LP at T whatever the pool holds:
// each verdict must equal a fresh single-probe solve at the same T unless
// one of them ran out of rounds. Every accepted probe's solution must
// satisfy the assignment-LP rows (1), (2) and (4) at its T. The fine
// precision walks the probes close to the grid threshold, where columns
// priced at a nearby T truly fit T but not T's grid: enabling them by true
// load instead makes this test fail on every cell.
TEST_P(ConfigLpSearchTest, OnePoolVerdictsMatchFreshProbes) {
  const Instance inst = instance();
  std::size_t probes = 0;
  std::size_t accepted = 0;
  RoundingOptions fine;
  fine.search_precision = 1e-3;
  const RoundingResult r = randomized_rounding_config(
      inst, fine, {}, [&](double T, const ConfigLpResult& pooled) {
        ++probes;
        const ConfigLpResult fresh = solve_config_lp(inst, T);
        if (pooled.status != ConfigLpStatus::kIterationLimit &&
            fresh.status != ConfigLpStatus::kIterationLimit) {
          EXPECT_EQ(pooled.status, fresh.status) << "probe at T = " << T;
        }
        if (pooled.status == ConfigLpStatus::kFeasible) {
          ++accepted;
          expect_valid_fractional(inst, pooled.fractional, T);
        }
      });
  EXPECT_GT(probes, 1u);
  EXPECT_GE(accepted, 1u);
  EXPECT_FALSE(schedule_error(inst, r.schedule).has_value());
  EXPECT_EQ(r.lp_solves, r.cg_pricing_rounds);  // one solve per round
}

// Replays the T-search's probe sequence on a master of each fit rule, then
// a descending and an ascending sweep: the pool's invariants (pin and fit
// blocking recounted, bounds, basis within the model) hold after every
// retune and every probe, and the pool only grows.
TEST_P(ConfigLpSearchTest, PoolInvariantsHoldAcrossRetunes) {
  const Instance inst = instance();
  std::vector<double> guesses;
  (void)randomized_rounding_config(inst, {}, {},
                                   [&](double T, const ConfigLpResult&) {
                                     guesses.push_back(T);
                                   });
  ASSERT_GT(guesses.size(), 1u);
  const double top = *std::max_element(guesses.begin(), guesses.end());
  for (const double f : {1.2, 0.9, 0.7, 0.5, 0.8, 1.1, 1.5}) {
    guesses.push_back(top * f);
  }
  for (const ColumnFit fit : {ColumnFit::kGrid, ColumnFit::kTrueLoad}) {
    CoverageMaster pool(inst, 2048, fit, {}, /*colgen_phase=*/false);
    std::size_t columns = 0;
    for (const double T : guesses) {
      pool.retune(T);
      EXPECT_TRUE(pool.check_invariants()) << "after retune to " << T;
      (void)pool.probe(80);
      EXPECT_TRUE(pool.check_invariants()) << "after the probe at " << T;
      EXPECT_GE(pool.size(), columns);
      columns = pool.size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ConfigLpSearchTest,
    ::testing::Combine(::testing::Values("unrelated-tiny", "unrelated-small"),
                       ::testing::Range<std::uint64_t>(1, 5)));

TEST(ConfigLp, PricingHonorsSetupCosts) {
  // One machine, two classes; T fits one class + its setup but not both.
  Instance inst(1, 2, {0, 1});
  inst.set_proc(0, 0, 4);
  inst.set_proc(0, 1, 4);
  inst.set_setup(0, 0, 4);
  inst.set_setup(0, 1, 4);
  // T = 8: exactly one (job + setup); coverage can only reach 1 of 2.
  const ConfigLpResult r = solve_config_lp(inst, 8.0);
  EXPECT_NE(r.status, ConfigLpStatus::kFeasible);
  EXPECT_LE(r.coverage, 1.0 + 1e-6);
  // T = 16: both classes fit.
  const ConfigLpResult r2 = solve_config_lp(inst, 16.0);
  EXPECT_EQ(r2.status, ConfigLpStatus::kFeasible);
}

}  // namespace
}  // namespace setsched
