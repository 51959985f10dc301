#include "unrelated/assignment_lp.h"

#include <algorithm>
#include <utility>

#include "common/bisect.h"
#include "common/check.h"
#include "core/bounds.h"

namespace setsched {

AssignmentLpLayout build_assignment_lp(const Instance& instance,
                                       double T_build, lp::Model* model) {
  const std::size_t n = instance.num_jobs();
  const std::size_t m = instance.num_machines();
  const std::size_t kc = instance.num_classes();
  AssignmentLpLayout out{Matrix<std::size_t>(m, n, kNoVar),
                         Matrix<std::size_t>(m, kc, kNoVar),
                         std::vector<std::size_t>(m, kNoVar)};
  Matrix<std::size_t>& xv = out.x_var;
  Matrix<std::size_t>& yv = out.y_var;

  // x variables for pairs allowed by (5) at the loosest guess T_build;
  // tighter probes shrink the set via upper bounds.
  for (MachineId i = 0; i < m; ++i) {
    for (JobId j = 0; j < n; ++j) {
      if (!instance.eligible(i, j)) continue;
      if (instance.proc(i, j) > T_build) continue;
      xv(i, j) = model->add_variable(0.0, 1.0, 0.0);
    }
  }
  // y variables; objective = minimize total fractional setups.
  for (MachineId i = 0; i < m; ++i) {
    for (ClassId k = 0; k < kc; ++k) {
      if (instance.setup(i, k) >= kInfinity) continue;
      yv(i, k) = model->add_variable(0.0, 1.0, 1.0);
    }
  }

  // (2): every job fully assigned.
  for (JobId j = 0; j < n; ++j) {
    std::vector<lp::Entry> row;
    for (MachineId i = 0; i < m; ++i) {
      if (xv(i, j) != kNoVar) row.push_back({xv(i, j), 1.0});
    }
    if (row.empty()) {  // job cannot run anywhere under T_build
      out.structurally_infeasible = true;
      return out;
    }
    model->add_constraint(std::move(row), lp::Sense::kEqual, 1.0);
  }

  // (1): machine load, rhs = T_build.
  for (MachineId i = 0; i < m; ++i) {
    std::vector<lp::Entry> row;
    for (JobId j = 0; j < n; ++j) {
      if (xv(i, j) != kNoVar) row.push_back({xv(i, j), instance.proc(i, j)});
    }
    for (ClassId k = 0; k < kc; ++k) {
      if (yv(i, k) != kNoVar) row.push_back({yv(i, k), instance.setup(i, k)});
    }
    if (!row.empty()) {
      out.load_row[i] = model->add_constraint(std::move(row),
                                              lp::Sense::kLessEqual, T_build);
    }
  }

  // (4): setup dominates assignment, per eligible (i, j).
  for (MachineId i = 0; i < m; ++i) {
    for (JobId j = 0; j < n; ++j) {
      if (xv(i, j) == kNoVar) continue;
      const ClassId k = instance.job_class(j);
      if (yv(i, k) == kNoVar) {  // x allowed but y not (unreachable for
        out.structurally_infeasible = true;  // validated instances)
        return out;
      }
      model->add_constraint({{yv(i, k), 1.0}, {xv(i, j), -1.0}},
                            lp::Sense::kGreaterEqual, 0.0);
    }
  }
  return out;
}

ParametricAssignmentLp::ParametricAssignmentLp(
    const Instance& instance, double T_build,
    const lp::SimplexOptions& simplex)
    : instance_(&instance),
      T_build_(T_build),
      session_(lp::Model(lp::Objective::kMinimize), simplex),
      layout_(build_assignment_lp(instance, T_build, &session_.model())) {}

std::optional<FractionalAssignment> ParametricAssignmentLp::solve(double T) {
  // A job that fits nowhere at T_build is exact combinatorial knowledge,
  // not simplex output: trusted without an audit, but still counted as a
  // probe of the chain.
  if (layout_.structurally_infeasible) {
    session_.record_infeasible();
    return std::nullopt;
  }
  check(T <= T_build_ * (1.0 + 1e-9) + 1e-12,
        "parametric assignment LP probed above its build guess");
  const Instance& inst = *instance_;
  const std::size_t n = inst.num_jobs();
  const std::size_t m = inst.num_machines();
  const std::size_t kc = inst.num_classes();
  const Matrix<std::size_t>& xv = layout_.x_var;
  const Matrix<std::size_t>& yv = layout_.y_var;
  // Re-parameterize to T: the filter (5) becomes each x column's upper
  // bound, and T the load rhs (1).
  lp::Model& model = session_.model();
  for (MachineId i = 0; i < m; ++i) {
    for (JobId j = 0; j < n; ++j) {
      if (xv(i, j) == kNoVar) continue;
      model.set_bounds(xv(i, j), 0.0, inst.proc(i, j) <= T ? 1.0 : 0.0);
    }
    if (layout_.load_row[i] != kNoVar) model.set_rhs(layout_.load_row[i], T);
  }
  const lp::Solution& sol = session_.solve();
  if (sol.status == lp::SolveStatus::kInfeasible) return std::nullopt;
  check(sol.optimal(), "assignment LP solve failed (not optimal/infeasible)");

  FractionalAssignment frac{Matrix<double>(m, n, 0.0),
                            Matrix<double>(m, kc, 0.0)};
  for (MachineId i = 0; i < m; ++i) {
    for (JobId j = 0; j < n; ++j) {
      if (xv(i, j) != kNoVar) {
        frac.x(i, j) = std::clamp(sol.x[xv(i, j)], 0.0, 1.0);
      }
    }
    for (ClassId k = 0; k < kc; ++k) {
      if (yv(i, k) != kNoVar) {
        frac.y(i, k) = std::clamp(sol.x[yv(i, k)], 0.0, 1.0);
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
    const Instance& instance, double T, const lp::SimplexOptions& simplex) {
  ParametricAssignmentLp lp(instance, T, simplex);
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
                                    const lp::SimplexOptions& simplex) {
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
  ParametricAssignmentLp lp(instance, hi, simplex);
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
  while (const std::optional<double> mid =
             geometric_midpoint(lo, hi, precision)) {
    if (auto sol = lp.solve(*mid)) {
      hi = *mid;
      best = std::move(sol);
    } else {
      lo = *mid;
    }
  }
  return finish(hi, lo, std::move(*best));
}

}  // namespace setsched
