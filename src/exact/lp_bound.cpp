#include "exact/lp_bound.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "exact/tolerances.h"

namespace setsched::exact {

namespace {

/// The min-T objective is all-nonnegative, so every basis is dual-feasible:
/// the dual simplex solves these relaxations end to end (cold and warm)
/// without a single phase-1 pivot. kAuto therefore means kDual here.
/// Every bound the search prunes or fixes against must survive a residual
/// audit (lp/guard.h), so every solve runs under the guard.
lp::SimplexOptions guarded_dual_engine(lp::SimplexOptions simplex) {
  if (simplex.algorithm == lp::SimplexAlgorithm::kAuto) {
    simplex.algorithm = lp::SimplexAlgorithm::kDual;
  }
  simplex.guard = true;
  return simplex;
}

}  // namespace

// The escalation ladder absorbs suspect solves and feasible() /
// root_lower_bound() demote whatever still comes back contested.
LpBounder::LpBounder(const Instance& instance, double T_build,
                     const lp::SimplexOptions& simplex)
    : instance_(&instance),
      T_build_(T_build),
      session_(lp::Model(lp::Objective::kMinimize),
               guarded_dual_engine(simplex)),
      pinned_(instance.num_jobs(), kUnassigned),
      fixed_zero_(instance.num_machines(), instance.num_jobs(), 0),
      root_fixed_(instance.num_machines(), instance.num_jobs(), 0) {
  if (!available()) return;
  lp::Model& model = session_.model();
  layout_ = build_assignment_lp(instance, T_build, &model);
  // Move T into a column: the y columns lose their setup-mass cost, T_var
  // becomes the whole objective, and each load row (1) charges its machine
  // against T_var (load_i - T_var <= 0) instead of against a rhs. T_var is
  // the last column, so the column and row order stay the T-search's.
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    for (ClassId k = 0; k < instance.num_classes(); ++k) {
      if (layout_.y_var(i, k) != kNoVar) {
        model.set_objective(layout_.y_var(i, k), 0.0);
      }
    }
  }
  const std::size_t T_var = model.add_variable(0.0, kInfinity, 1.0);
  for (const std::size_t row : layout_.load_row) {
    if (row == kNoVar) continue;
    model.add_to_row(row, T_var, -1.0);
    model.set_rhs(row, 0.0);
  }
}

void LpBounder::pin(JobId j, MachineId i) {
  if (!available()) return;
  unpin(j);
  pinned_[j] = i;
  if (layout_.x_var(i, j) == kNoVar) ++impossible_pins_;
}

void LpBounder::unpin(JobId j) {
  if (!available()) return;
  const MachineId i = pinned_[j];
  if (i == kUnassigned) return;
  pinned_[j] = kUnassigned;
  if (layout_.x_var(i, j) == kNoVar) --impossible_pins_;
}

std::optional<double> LpBounder::min_makespan(double T_filter) {
  // Infeasibility by structure (a job that fits nowhere, a pin onto a pair
  // absent from the model) is exact combinatorial knowledge, not simplex
  // output: trusted without an audit, but still counted as a probe.
  if (layout_.structurally_infeasible || impossible_pins_ > 0) {
    session_.record_infeasible();
    return std::nullopt;
  }
  check(T_filter <= T_build_, "LP bounder probed above its build cutoff");
  // Re-parameterize: pins override the filters (a pinned pair whose
  // processing time exceeds T_filter still reads as "does not fit": T_var
  // absorbs the load and the value exceeds T_filter), a fixed pair is held
  // at 0, and every other pair obeys the filter (5) at T_filter.
  const Instance& inst = *instance_;
  lp::Model& model = session_.model();
  for (MachineId i = 0; i < inst.num_machines(); ++i) {
    for (JobId j = 0; j < inst.num_jobs(); ++j) {
      const std::size_t v = layout_.x_var(i, j);
      if (v == kNoVar) continue;
      if (pinned_[j] != kUnassigned) {
        const double at = pinned_[j] == i ? 1.0 : 0.0;
        model.set_bounds(v, at, at);
        continue;
      }
      const bool allowed =
          fixed_zero_(i, j) == 0 && inst.proc(i, j) <= T_filter;
      model.set_bounds(v, 0.0, allowed ? 1.0 : 0.0);
    }
  }
  const lp::Solution& sol = session_.solve();
  if (sol.status == lp::SolveStatus::kInfeasible) return std::nullopt;
  check(sol.optimal(), "makespan LP solve failed (not optimal/infeasible)");
  return sol.objective;
}

bool LpBounder::feasible(double T) {
  if (!available()) return true;  // no bounder, no pruning
  const std::optional<double> value = min_makespan(T);
  if (value.has_value() &&
      *value <= T * (1.0 + kLpPruneRelSlack) + kLpPruneAbsSlack) {
    return true;
  }
  // Safe pruning: an "infeasible at T" (or "bound above T") answer whose
  // audit stayed contested after the full recovery ladder is demoted to "no
  // bound" — the node is searched, never pruned on corrupted numerics.
  return last_contested();
}

double LpBounder::root_lower_bound(double lo, double hi, double) {
  if (!available() || hi <= 0.0 || lo >= hi) return lo;
  const std::optional<double> value = min_makespan(hi);
  if (!value.has_value()) return lo;  // impossible pins cannot happen at root
  // A contested root solve must not raise the certified bound: fall back to
  // the trusted combinatorial `lo` (the gap report stays sound, just looser).
  if (last_contested()) return lo;
  return std::max(lo, *value);
}

void LpBounder::compute_reduced_costs() {
  // Reduced costs d_j = c_j - y^T A_j in one sweep over the rows (the model
  // is a minimization, so a nonbasic-at-lower column satisfies d_j >= 0 and
  // the sensitivity bound obj(x_j >= t) >= value + d_j * t).
  const lp::Model& model = session_.model();
  const std::vector<double>& duals = session_.last().duals;
  reduced_.assign(model.num_variables(), 0.0);
  for (std::size_t v = 0; v < model.num_variables(); ++v) {
    reduced_[v] = model.objective(v);
  }
  for (std::size_t r = 0; r < model.num_constraints(); ++r) {
    const double y = duals[r];
    if (y == 0.0) continue;
    for (const lp::Entry& e : model.row(r)) reduced_[e.col] -= y * e.value;
  }
}

std::size_t LpBounder::fix_dominated(
    double cutoff, std::vector<std::pair<JobId, MachineId>>* undo) {
  if (!available()) return 0;
  const lp::Solution& last = session_.last();
  if (!last.optimal()) return 0;
  // Reduced-cost fixing acts only on audited (or unaudited-but-trusted)
  // duals: a contested solve's sensitivity bounds could exclude pairs the
  // true relaxation allows, which would silently cut off optimal schedules.
  if (last.audit_contested()) return 0;
  const double value = last.objective;
  const double margin = kFixMarginRel * std::max(1.0, std::abs(cutoff));
  if (value >= cutoff) return 0;  // the whole node prunes anyway

  compute_reduced_costs();
  const Instance& inst = *instance_;
  std::size_t fixed = 0;
  for (MachineId i = 0; i < inst.num_machines(); ++i) {
    for (JobId j = 0; j < inst.num_jobs(); ++j) {
      const std::size_t v = layout_.x_var(i, j);
      if (v == kNoVar || fixed_zero_(i, j) != 0) continue;
      if (pinned_[j] != kUnassigned) continue;
      // Only nonbasic-at-lower columns carry the sensitivity bound; a basic
      // or at-upper column has d <= 0 and never passes the threshold, but
      // exclude columns sitting away from 0 explicitly for clarity.
      if (last.x[v] > kAtLowerTol) continue;
      if (value + reduced_[v] >= cutoff + margin) {
        ++fixed_zero_(i, j);
        undo->push_back({j, i});
        ++fixed;
      }
    }
  }
  fixed_ += fixed;
  return fixed;
}

void LpBounder::unfix(std::vector<std::pair<JobId, MachineId>>* undo,
                      std::size_t from) {
  while (undo->size() > from) {
    const auto [j, i] = undo->back();
    undo->pop_back();
    --fixed_zero_(i, j);
  }
}

void LpBounder::save_root_snapshot() {
  if (!available()) return;
  for (const MachineId pin : pinned_) {
    check(pin == kUnassigned, "root snapshot taken with pins set");
  }
  const lp::Solution& last = session_.last();
  if (!last.optimal()) return;
  // A contested root solve must not become the permanent fixing certificate
  // for the entire search (refix_root re-applies it at every incumbent
  // improvement with no further audit).
  if (last.audit_contested()) return;
  compute_reduced_costs();
  const std::size_t vars = session_.model().num_variables();
  root_bound_.assign(vars, -kInfinity);
  for (std::size_t v = 0; v < vars; ++v) {
    if (last.x[v] > kAtLowerTol) continue;  // no bound off the lower bound
    root_bound_[v] = last.objective + reduced_[v];
  }
}

std::size_t LpBounder::refix_root(double cutoff) {
  if (root_bound_.empty()) return 0;
  const double margin = kFixMarginRel * std::max(1.0, std::abs(cutoff));
  const Instance& inst = *instance_;
  std::size_t fixed = 0;
  for (MachineId i = 0; i < inst.num_machines(); ++i) {
    for (JobId j = 0; j < inst.num_jobs(); ++j) {
      const std::size_t v = layout_.x_var(i, j);
      if (v == kNoVar || root_fixed_(i, j) != 0) continue;
      if (root_bound_[v] >= cutoff + margin) {
        // Permanent: stacks on top of any live subtree fix (the count keeps
        // the pair fixed when that scope unwinds) and is never undone. Jobs
        // currently pinned onto the pair are fixed too — the root bound is a
        // pin-free fact, so the surrounding subtree just prunes.
        root_fixed_(i, j) = 1;
        ++fixed_zero_(i, j);
        ++fixed;
      }
    }
  }
  fixed_ += fixed;
  return fixed;
}

}  // namespace setsched::exact
