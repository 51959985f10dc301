#pragma once

#include <cstdint>

#include "common/thread_pool.h"
#include "core/instance.h"
#include "unrelated/assignment_lp.h"
#include "unrelated/rounding.h"

namespace setsched {

/// Pricing tolerance of the configuration LP, shared by the T-search
/// (solve_config_lp) and the branch-and-price bounder (exact/config_bound.h)
/// so both restricted masters behave alike: the dual-value margin a priced
/// column must beat its machine's convexity dual by to count as improving,
/// the per-job dual floor below which free jobs are not priced, and the
/// coverage slack of the kFeasible verdict (coverage >= n - tol).
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
  /// Simplex knobs for the restricted master (colgen/coverage_master.h). The
  /// RMP is built once and grows by columns; each round's solve warm-starts
  /// from the previous round's basis (revised path only).
  lp::SimplexOptions simplex = {};
};

enum class ConfigLpStatus {
  kFeasible,          ///< coverage n reached; fractional solution returned
  kInfeasibleAtGrid,  ///< no improving column and coverage < n
  kIterationLimit,
};

/// The effort counters are the RMP's session effort: lp_solves (one per
/// round that added a column), lp_iterations, lp_dual_solves and the guard
/// counters, summed over all RMP solves.
struct ConfigLpResult : EffortCounters {
  ConfigLpStatus status = ConfigLpStatus::kIterationLimit;
  FractionalAssignment fractional;  ///< valid iff kFeasible
  double coverage = 0.0;            ///< final RMP objective (<= n)
  std::size_t columns = 0;
  std::size_t iterations = 0;
};

[[nodiscard]] ConfigLpResult solve_config_lp(const Instance& instance, double T,
                                             const ConfigLpOptions& options = {});

/// One priced configuration column for a machine (the pricing subproblem's
/// optimum): the covered job set and its total dual value.
struct PricedConfig {
  double value = 0.0;  ///< Σ duals of covered jobs (mandatory jobs included)
  std::vector<JobId> jobs;
  /// Pin feasibility certificate (branch-and-price only; always true when no
  /// pins are passed): false means the jobs *pinned to this machine* alone
  /// overflow the grid at T. Because weights are rounded up at an inflated
  /// probe T (exact/config_bound.h picks T so any truly-T-feasible set
  /// rounds within the grid), overflow of the mandatory subset certifies
  /// that machine's true load exceeds T in EVERY completion of the partial
  /// schedule — a sound prune.
  bool pins_fit = true;
};

/// Exact knapsack-with-class-opening-costs pricing for one machine on the
/// scaled grid (weights rounded up, so any returned set truly fits in T).
/// This is the pricing subproblem of solve_config_lp(), exposed for the
/// branch-and-price bounder (exact/config_bound.h).
///
/// `pinned` (optional, size n, kUnassigned = free) restricts the priced
/// configuration to ones consistent with a partial schedule: jobs pinned to
/// machine `i` are MANDATORY (always included, their class openings and
/// weights pre-committed, their duals credited even when below `tol`), jobs
/// pinned elsewhere are EXCLUDED. Without pins a value below `tol` returns
/// an empty job set (no worthwhile configuration); with mandatory jobs the
/// pinned set is always returned so the RMP can cover pinned jobs.
[[nodiscard]] PricedConfig price_machine_config(
    const Instance& instance, MachineId i, double T,
    const std::vector<double>& dual, std::size_t grid, double tol,
    const std::vector<MachineId>* pinned = nullptr);

/// Theorem 3.3 rounding driven by the configuration LP instead of the direct
/// assignment LP: binary-searches the smallest grid-feasible T, then runs
/// the unchanged randomized rounding on the recovered fractional solution.
[[nodiscard]] RoundingResult randomized_rounding_config(
    const Instance& instance, const RoundingOptions& rounding = {},
    const ConfigLpOptions& config = {});

}  // namespace setsched
