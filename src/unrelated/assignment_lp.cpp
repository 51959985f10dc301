#include "unrelated/assignment_lp.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "core/bounds.h"

namespace setsched {

namespace {

constexpr std::size_t kNoVar = SIZE_MAX;

}  // namespace

ParametricAssignmentLp::ParametricAssignmentLp(
    const Instance& instance, double T_build,
    const AssignmentLpOptions& options)
    : instance_(&instance),
      options_(options),
      T_build_(T_build),
      session_(lp::Model(lp::Objective::kMinimize), options.simplex,
               options.audit_interval),
      xv_(instance.num_machines(), instance.num_jobs(), kNoVar),
      yv_(instance.num_machines(), instance.num_classes(), kNoVar),
      pinned_(instance.num_jobs(), kUnassigned),
      fixed_zero_(instance.num_machines(), instance.num_jobs(), 0),
      root_fixed_(instance.num_machines(), instance.num_jobs(), 0) {
  const std::size_t n = instance.num_jobs();
  const std::size_t m = instance.num_machines();
  const std::size_t kc = instance.num_classes();
  const double T = T_build;
  const bool min_T = options.makespan_objective;
  lp::Model& model = session_.model();

  // x variables for pairs allowed by (5) at the loosest guess T_build;
  // tighter probes shrink the set via upper bounds.
  for (MachineId i = 0; i < m; ++i) {
    for (JobId j = 0; j < n; ++j) {
      if (!instance.eligible(i, j)) continue;
      if (instance.proc(i, j) > T) continue;
      xv_(i, j) = model.add_variable(0.0, 1.0, 0.0);
    }
  }
  // y variables; objective = minimize total fractional setups (or nothing in
  // makespan mode, where the explicit T_var column is the whole objective).
  for (MachineId i = 0; i < m; ++i) {
    for (ClassId k = 0; k < kc; ++k) {
      if (instance.setup(i, k) >= kInfinity) continue;
      yv_(i, k) = model.add_variable(0.0, 1.0, min_T ? 0.0 : 1.0);
    }
  }
  if (min_T) tvar_ = model.add_variable(0.0, kInfinity, 1.0);

  // (2): every job fully assigned.
  for (JobId j = 0; j < n; ++j) {
    std::vector<lp::Entry> row;
    for (MachineId i = 0; i < m; ++i) {
      if (xv_(i, j) != kNoVar) row.push_back({xv_(i, j), 1.0});
    }
    if (row.empty()) {  // job cannot run anywhere under T_build
      structurally_infeasible_ = true;
      return;
    }
    model.add_constraint(std::move(row), lp::Sense::kEqual, 1.0);
  }

  // (1): machine load, rhs = T (re-parameterized per probe). In makespan
  // mode the load is charged against the T_var column instead: load_i -
  // T_var <= 0, rhs fixed at 0, min T_var the objective.
  load_row_.assign(m, kNoVar);
  for (MachineId i = 0; i < m; ++i) {
    std::vector<lp::Entry> row;
    for (JobId j = 0; j < n; ++j) {
      if (xv_(i, j) != kNoVar) row.push_back({xv_(i, j), instance.proc(i, j)});
    }
    for (ClassId k = 0; k < kc; ++k) {
      if (yv_(i, k) != kNoVar) row.push_back({yv_(i, k), instance.setup(i, k)});
    }
    if (!row.empty()) {
      if (min_T) row.push_back({tvar_, -1.0});
      load_row_[i] = model.add_constraint(std::move(row),
                                          lp::Sense::kLessEqual,
                                          min_T ? 0.0 : T);
    }
  }

  // (4): setup dominates assignment, per eligible (i, j).
  for (MachineId i = 0; i < m; ++i) {
    for (JobId j = 0; j < n; ++j) {
      if (xv_(i, j) == kNoVar) continue;
      const ClassId k = instance.job_class(j);
      if (yv_(i, k) == kNoVar) {  // x allowed but y not (unreachable for
        structurally_infeasible_ = true;  // validated instances)
        return;
      }
      model.add_constraint({{yv_(i, k), 1.0}, {xv_(i, j), -1.0}},
                           lp::Sense::kGreaterEqual, 0.0);
    }
  }
}

void ParametricAssignmentLp::reparameterize(double T) {
  const Instance& inst = *instance_;
  lp::Model& model = session_.model();
  const std::size_t n = inst.num_jobs();
  const std::size_t m = inst.num_machines();
  for (MachineId i = 0; i < m; ++i) {
    for (JobId j = 0; j < n; ++j) {
      const std::size_t v = xv_(i, j);
      if (v == kNoVar) continue;
      if (pinned_[j] != kUnassigned) {
        // Pinned jobs override the T filters: x is fixed to the pin. A pin
        // whose processing time exceeds T still reads as "does not fit
        // under T": in setup-mass mode the load row's forced activity
        // exceeds its rhs (infeasible), in makespan mode T_var absorbs the
        // load and min_makespan() returns a value > T that feasible()
        // rejects against its threshold.
        model.set_bounds(v, pinned_[j] == i ? 1.0 : 0.0,
                         pinned_[j] == i ? 1.0 : 0.0);
        continue;
      }
      const bool allowed = fixed_zero_(i, j) == 0 && inst.proc(i, j) <= T;
      model.set_bounds(v, 0.0, allowed ? 1.0 : 0.0);
    }
    // Makespan mode keeps the load rhs at 0 (T lives in the T_var column).
    if (!options_.makespan_objective && load_row_[i] != kNoVar) {
      model.set_rhs(load_row_[i], T);
    }
  }
}

void ParametricAssignmentLp::pin_job(JobId j, MachineId i) {
  unpin_job(j);
  pinned_[j] = i;
  if (!structurally_infeasible_ && xv_(i, j) == kNoVar) ++impossible_pins_;
}

void ParametricAssignmentLp::unpin_job(JobId j) {
  const MachineId i = pinned_[j];
  if (i == kUnassigned) return;
  pinned_[j] = kUnassigned;
  if (!structurally_infeasible_ && xv_(i, j) == kNoVar) --impossible_pins_;
}

const lp::Solution& ParametricAssignmentLp::run_solve(double T) {
  // Infeasibility by structure (a pin onto a variable absent from the model)
  // is exact combinatorial knowledge, not simplex output: trusted without an
  // audit, but still counted as a probe of the chain.
  if (structurally_infeasible_ || impossible_pins_ > 0) {
    return session_.record_infeasible();
  }
  check(T <= T_build_ * (1.0 + 1e-9) + 1e-12,
        "parametric assignment LP probed above its build guess");
  reparameterize(T);
  return session_.solve();
}

std::optional<double> ParametricAssignmentLp::min_makespan(double T_filter) {
  check(options_.makespan_objective,
        "min_makespan needs AssignmentLpOptions::makespan_objective");
  const lp::Solution& sol = run_solve(T_filter);
  if (sol.status == lp::SolveStatus::kInfeasible) return std::nullopt;
  check(sol.optimal(), "makespan LP solve failed (not optimal/infeasible)");
  return sol.objective;
}

void ParametricAssignmentLp::compute_reduced_costs() {
  // Reduced costs d_j = c_j - y^T A_j in one sweep over the rows (the model
  // is a minimization, so a nonbasic-at-lower column satisfies d_j >= 0 and
  // the sensitivity bound obj(x_j >= t) >= value + d_j * t). The scratch
  // buffer is a member: this runs on every LP-probed branch-and-bound node.
  const lp::Model& model = session_.model();
  const std::vector<double>& duals = session_.last().duals;
  std::vector<double>& reduced = reduced_scratch_;
  reduced.assign(model.num_variables(), 0.0);
  for (std::size_t v = 0; v < model.num_variables(); ++v) {
    reduced[v] = model.objective(v);
  }
  for (std::size_t r = 0; r < model.num_constraints(); ++r) {
    const double y = duals[r];
    if (y == 0.0) continue;
    for (const lp::Entry& e : model.row(r)) reduced[e.col] -= y * e.value;
  }
}

std::size_t ParametricAssignmentLp::fix_dominated(
    double cutoff, std::vector<std::pair<JobId, MachineId>>* out) {
  check(options_.makespan_objective,
        "fix_dominated needs AssignmentLpOptions::makespan_objective");
  const lp::Solution& last = session_.last();
  if (!last.optimal()) return 0;
  // Reduced-cost fixing acts only on audited (or unaudited-but-trusted)
  // duals: a contested solve's sensitivity bounds could exclude pairs the
  // true relaxation allows, which would silently cut off optimal schedules.
  if (last.audit_contested()) return 0;
  const double value = last.objective;
  const double margin = 1e-7 * std::max(1.0, std::abs(cutoff));
  if (value >= cutoff) return 0;  // the whole node prunes anyway

  compute_reduced_costs();
  const std::vector<double>& reduced = reduced_scratch_;
  const Instance& inst = *instance_;
  std::size_t fixed = 0;
  for (MachineId i = 0; i < inst.num_machines(); ++i) {
    for (JobId j = 0; j < inst.num_jobs(); ++j) {
      const std::size_t v = xv_(i, j);
      if (v == kNoVar || fixed_zero_(i, j) != 0) continue;
      if (pinned_[j] != kUnassigned) continue;
      // Only nonbasic-at-lower columns carry the sensitivity bound; a basic
      // or at-upper column has d <= 0 and never passes the threshold, but
      // exclude columns sitting away from 0 explicitly for clarity.
      if (last.x[v] > 1e-9) continue;
      if (value + reduced[v] >= cutoff + margin) {
        ++fixed_zero_(i, j);
        out->push_back({j, i});
        ++fixed;
      }
    }
  }
  return fixed;
}

void ParametricAssignmentLp::unfix(
    std::vector<std::pair<JobId, MachineId>>* out, std::size_t from) {
  while (out->size() > from) {
    const auto [j, i] = out->back();
    out->pop_back();
    --fixed_zero_(i, j);
  }
}

bool ParametricAssignmentLp::save_root_snapshot() {
  check(options_.makespan_objective,
        "save_root_snapshot needs AssignmentLpOptions::makespan_objective");
  for (const MachineId pin : pinned_) {
    check(pin == kUnassigned, "root snapshot taken with pins set");
  }
  const lp::Solution& last = session_.last();
  if (!last.optimal()) return false;
  // A contested root solve must not become the permanent fixing certificate
  // for the entire search (refix_root re-applies it at every incumbent
  // improvement with no further audit).
  if (last.audit_contested()) return false;
  compute_reduced_costs();
  const double value = last.objective;
  const std::size_t vars = session_.model().num_variables();
  root_bound_.assign(vars, -kInfinity);
  for (std::size_t v = 0; v < vars; ++v) {
    if (last.x[v] > 1e-9) continue;  // no bound off the lower bound
    root_bound_[v] = value + reduced_scratch_[v];
  }
  return true;
}

std::size_t ParametricAssignmentLp::refix_root(double cutoff) {
  if (root_bound_.empty()) return 0;
  const double margin = 1e-7 * std::max(1.0, std::abs(cutoff));
  const Instance& inst = *instance_;
  std::size_t fixed = 0;
  for (MachineId i = 0; i < inst.num_machines(); ++i) {
    for (JobId j = 0; j < inst.num_jobs(); ++j) {
      const std::size_t v = xv_(i, j);
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
  return fixed;
}

bool ParametricAssignmentLp::feasible(double T) {
  if (options_.makespan_objective) {
    // The makespan-mode LP is feasible for (almost) every T — T_var absorbs
    // any load — so feasibility at T means "the minimum fractional makespan
    // fits under T".
    const std::optional<double> value = min_makespan(T);
    return value.has_value() && *value <= T * (1.0 + 1e-9) + 1e-9;
  }
  const lp::Solution& sol = run_solve(T);
  if (sol.status == lp::SolveStatus::kInfeasible) return false;
  check(sol.optimal(), "assignment LP probe failed (not optimal/infeasible)");
  return true;
}

std::optional<FractionalAssignment> ParametricAssignmentLp::solve(double T) {
  const lp::Solution& sol = run_solve(T);
  if (sol.status == lp::SolveStatus::kInfeasible) return std::nullopt;
  check(sol.optimal(), "assignment LP solve failed (not optimal/infeasible)");

  const Instance& inst = *instance_;
  const std::size_t n = inst.num_jobs();
  const std::size_t m = inst.num_machines();
  const std::size_t kc = inst.num_classes();
  FractionalAssignment frac{Matrix<double>(m, n, 0.0),
                            Matrix<double>(m, kc, 0.0)};
  for (MachineId i = 0; i < m; ++i) {
    for (JobId j = 0; j < n; ++j) {
      if (xv_(i, j) != kNoVar) {
        frac.x(i, j) = std::clamp(sol.x[xv_(i, j)], 0.0, 1.0);
      }
    }
    for (ClassId k = 0; k < kc; ++k) {
      if (yv_(i, k) != kNoVar) {
        frac.y(i, k) = std::clamp(sol.x[yv_(i, k)], 0.0, 1.0);
      }
    }
  }
  // Guard (4) against roundoff so rounding probabilities stay in [0, 1].
  for (MachineId i = 0; i < m; ++i) {
    for (JobId j = 0; j < n; ++j) {
      const ClassId k = inst.job_class(j);
      frac.y(i, k) = std::max(frac.y(i, k), frac.x(i, j));
    }
  }
  return frac;
}

std::optional<FractionalAssignment> solve_assignment_lp(
    const Instance& instance, double T, const AssignmentLpOptions& options) {
  ParametricAssignmentLp lp(instance, T, options);
  return lp.solve(T);
}

double assignment_lp_floor(const Instance& instance) {
  double floor1 = 0.0;
  double sum_min = 0.0;
  for (JobId j = 0; j < instance.num_jobs(); ++j) {
    double mn = kInfinity;
    for (MachineId i = 0; i < instance.num_machines(); ++i) {
      if (instance.eligible(i, j)) mn = std::min(mn, instance.proc(i, j));
    }
    check(mn < kInfinity, "job has no eligible machine");
    floor1 = std::max(floor1, mn);
    sum_min += mn;
  }
  const double floor2 = sum_min / static_cast<double>(instance.num_machines());
  return std::max(floor1, floor2);
}

LpSearchResult search_assignment_lp(const Instance& instance, double precision,
                                    const AssignmentLpOptions& options) {
  check(precision > 0.0, "precision must be positive");
  LpSearchResult out;

  // Seed the left endpoint with the setup-aware combinatorial bound from
  // core/bounds as well: it dominates the setup-blind LP floor whenever
  // setups matter, shrinking the [lo, hi] window and so the number of
  // simplex solves the geometric search needs. Both seeds are lower bounds
  // on OPT, so `lo` stays one.
  double lo = std::max(assignment_lp_floor(instance),
                       unrelated_lower_bound(instance));
  double hi = unrelated_upper_bound(instance);
  check(hi >= lo * 0.999999, "upper bound below LP floor");
  lo = std::min(lo, hi);

  // One model for the whole search, built at the loosest guess. The hi
  // solve runs first: it must happen anyway whenever lo is infeasible (the
  // common case), it seeds the warm-start chain for every later probe, and
  // its solution is reused as `best` at window exit without a re-solve.
  ParametricAssignmentLp lp(instance, hi, options);
  auto best = lp.solve(hi);
  check(best.has_value(), "LP infeasible at a feasible schedule's makespan");

  const auto finish = [&](double feasible_T, double lower_bound,
                          FractionalAssignment fractional) {
    out.feasible_T = feasible_T;
    out.lower_bound = lower_bound;
    out.fractional = std::move(fractional);
    out.effort() = lp.effort();
    return std::move(out);
  };

  // The floor value itself might be feasible; test it before bisecting so
  // `lo` keeps the invariant "infeasible or equal to the final feasible T".
  if (lo < hi) {
    if (auto at_lo = lp.solve(lo)) {
      return finish(lo, lo, std::move(*at_lo));
    }
  }
  while (hi / lo > 1.0 + precision) {
    const double mid = std::sqrt(lo * hi);
    if (auto sol = lp.solve(mid)) {
      hi = mid;
      best = std::move(sol);
    } else {
      lo = mid;
    }
  }
  return finish(hi, lo, std::move(*best));
}

}  // namespace setsched
