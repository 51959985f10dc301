#include "exact/lp_bound.h"

#include <algorithm>
#include <cmath>

namespace setsched::exact {

LpBounder::LpBounder(const Instance& instance, double T_build,
                     const lp::SimplexOptions& simplex) {
  if (T_build <= 0.0) return;
  AssignmentLpOptions options;
  options.makespan_objective = true;
  // Every bound the search prunes or fixes against must survive a residual
  // audit (lp/guard.h); the escalation ladder absorbs suspect solves and
  // feasible()/root_lower_bound() demote whatever still comes back
  // contested.
  options.audit_interval = 1;
  options.simplex = simplex;
  if (options.simplex.algorithm == lp::SimplexAlgorithm::kAuto) {
    // The min-T objective is all-nonnegative, so every basis is
    // dual-feasible: the dual simplex solves these relaxations end to end
    // (cold and warm) without a single phase-1 pivot.
    options.simplex.algorithm = lp::SimplexAlgorithm::kDual;
  }
  lp_.emplace(instance, T_build, options);
}

bool LpBounder::feasible(double T) {
  if (!lp_) return true;  // no bounder, no pruning
  const bool feasible = lp_->feasible(T);
  // Safe pruning: an "infeasible at T" (or "bound above T") answer whose
  // audit stayed contested after the full recovery ladder is demoted to "no
  // bound" — the node is searched, never pruned on corrupted numerics.
  if (!feasible && last_contested()) return true;
  return feasible;
}

double LpBounder::root_lower_bound(double lo, double hi, double) {
  if (!lp_ || hi <= 0.0 || lo >= hi) return lo;
  const std::optional<double> value = lp_->min_makespan(hi);
  if (!value.has_value()) return lo;  // impossible pins cannot happen at root
  // A contested root solve must not raise the certified bound: fall back to
  // the trusted combinatorial `lo` (the gap report stays sound, just looser).
  if (last_contested()) return lo;
  return std::max(lo, *value);
}

std::size_t LpBounder::fix_dominated(
    double cutoff, std::vector<std::pair<JobId, MachineId>>* undo) {
  if (!lp_) return 0;
  const std::size_t fixed = lp_->fix_dominated(cutoff, undo);
  fixed_ += fixed;
  return fixed;
}

std::size_t LpBounder::refix_root(double cutoff) {
  if (!lp_) return 0;
  const std::size_t fixed = lp_->refix_root(cutoff);
  fixed_ += fixed;
  return fixed;
}

}  // namespace setsched::exact
