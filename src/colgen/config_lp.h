#pragma once

#include <cstdint>
#include <functional>

#include "common/thread_pool.h"
#include "core/instance.h"
#include "unrelated/assignment_lp.h"
#include "unrelated/rounding.h"

namespace setsched {

/// Pricing tolerance of the configuration LP's round loop
/// (CoverageMaster::probe): the margin a priced column must beat its
/// machine's convexity dual by, the per-job dual floor below which free jobs
/// are not priced, and the coverage slack of kFeasible (coverage >= n - tol).
inline constexpr double kConfigLpPricingTol =
    1e-6;  // lint: allow-tolerance (named definition site)

/// Column-generation solver for the *configuration LP* of scheduling with
/// setup times: a configuration of machine i is a job set S with
///   Σ_{j∈S} p_ij + Σ_{k: S∩J_k≠∅} s_ik <= T.
/// The restricted master problem maximizes fractional job coverage subject
/// to one unit of configuration mass per machine; coverage n certifies
/// (fractional) feasibility of the guess T. Pricing is a knapsack with
/// class opening costs, solved exactly on a scaled grid of 2048 buckets:
/// item weights are rounded *up*, so every generated configuration genuinely
/// fits in T, at the price of conservatism (a feasible T may be reported
/// infeasible-at-grid when Σ of up-rounding slack matters). The recovered
/// (x, y) pair satisfies the assignment-LP constraints (1), (2), (4) and is
/// consumed unchanged by the Theorem 3.3 randomized rounding — this is the
/// scalable path when the direct LP's Θ(nm) coupling rows are too large.
/// A probe gives up after 80 pricing rounds (kIterationLimit).
struct ConfigLpOptions {
  /// Optional pool: pricing problems across machines run in parallel.
  ThreadPool* pool = nullptr;
  /// Simplex knobs for the restricted master (colgen/coverage_master.h).
  lp::SimplexOptions simplex = {};
};

/// How a configuration-LP probe ended (CoverageMaster::probe).
enum class ConfigLpStatus {
  kFeasible,          ///< coverage n reached; fractional solution returned
  kInfeasibleAtGrid,  ///< no improving column and coverage < n
  kPinsOverflow,  ///< the jobs pinned to one machine alone overflow the grid
  kIterationLimit,
  kContested,  ///< a master solve was not optimal or its audit contested it
};

/// The effort counters are the master's (CoverageMaster::effort): one
/// lp_solve per round, lp_iterations, the dual, factorization and guard
/// counters, cg_columns and cg_pricing_rounds.
struct ConfigLpResult : EffortCounters {
  ConfigLpStatus status = ConfigLpStatus::kIterationLimit;
  FractionalAssignment fractional;  ///< valid iff kFeasible
  double coverage = 0.0;            ///< final RMP objective (<= n)
};

/// The configuration LP at one guess T: a fresh master, one probe.
[[nodiscard]] ConfigLpResult solve_config_lp(const Instance& instance, double T,
                                             const ConfigLpOptions& options = {});

/// Theorem 3.3 rounding driven by the configuration LP instead of the direct
/// assignment LP. The T-search widens the best-machine makespan by 1.3x (at
/// most 8 times) until the LP accepts, then bisects geometrically down to
/// the search precision, every probe on ONE CoverageMaster retuned to its T.
/// The rounding then runs on the solution accepted at the smallest T.
/// `on_probe`, when set, sees every probe's T and result in order.
[[nodiscard]] RoundingResult randomized_rounding_config(
    const Instance& instance, const RoundingOptions& rounding = {},
    const ConfigLpOptions& config = {},
    const std::function<void(double, const ConfigLpResult&)>& on_probe = {});

}  // namespace setsched
