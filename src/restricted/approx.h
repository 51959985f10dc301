#pragma once

#include "core/instance.h"
#include "core/result.h"
#include "restricted/relaxed_lp.h"

namespace setsched {

/// The effort counters sum every probe of the T-search (including infeasible
/// probes, which still cost pivots): lp_solves, lp_iterations, and the guard
/// counters.
struct ConstantApproxResult : EffortCounters {
  Schedule schedule;
  double makespan = 0.0;
  /// LP-feasible makespan guess the rounding worked against.
  double lp_T = 0.0;
  /// Proven lower bound on OPT (largest T where LP-RelaxedRA was infeasible,
  /// or the trivial floor).
  double lp_lower_bound = 0.0;
};

/// Theorem 3.10: 2-approximation for restricted assignment with
/// class-uniform restrictions. Requires is_restricted_class_uniform(instance)
/// (checked). Binary-searches the smallest LP-RelaxedRA-feasible T, then
/// rounds the extreme solution via the pseudoforest construction: the lost
/// edge's workload moves to a chosen Ẽ machine i+_k, per-class reserved slots
/// are filled greedily with i+_k last. Guarantees makespan <= 2 lp_T.
[[nodiscard]] ConstantApproxResult two_approx_restricted(
    const Instance& instance, double precision = 0.02,
    const lp::SimplexOptions& simplex = {});

/// Theorem 3.11: 3-approximation for unrelated machines with class-uniform
/// processing times. Requires is_class_uniform_processing(instance)
/// (checked). Same LP and pseudoforest; classes whose lost share exceeds 1/2
/// move entirely to i^-_k, otherwise the kept shares are doubled.
/// Guarantees makespan <= 3 lp_T.
[[nodiscard]] ConstantApproxResult three_approx_class_uniform(
    const Instance& instance, double precision = 0.02,
    const lp::SimplexOptions& simplex = {});

}  // namespace setsched
