#include "lp/guard.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "lp/tolerances.h"

namespace setsched::lp {

std::string_view audit_verdict_name(AuditVerdict verdict) {
  switch (verdict) {
    case AuditVerdict::kSkipped: return "skipped";
    case AuditVerdict::kClean: return "clean";
    case AuditVerdict::kSuspect: return "suspect";
    case AuditVerdict::kFailed: return "failed";
  }
  return "unknown";
}

namespace {

/// Reduced costs d_j = c_j - y^T A_j in the model's original sense,
/// recomputed from scratch — the audit trusts nothing the solver cached.
std::vector<double> reduced_costs(const Model& model,
                                  const std::vector<double>& y) {
  const std::size_t n = model.num_variables();
  std::vector<double> d(n);
  for (std::size_t j = 0; j < n; ++j) d[j] = model.objective(j);
  for (std::size_t r = 0; r < model.num_constraints(); ++r) {
    const double yr = y[r];
    if (yr == 0.0) continue;
    for (const Entry& e : model.row(r)) d[e.col] -= yr * e.value;
  }
  return d;
}

bool all_finite(const std::vector<double>& v) {
  for (const double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// Wrong-sign magnitude of one nonbasic reduced cost under minimization
/// (callers flip d for maximization): at-lower wants d >= 0, at-upper wants
/// d <= 0, basic wants d == 0.
double sign_violation(double d, VarStatus status) {
  switch (status) {
    case VarStatus::kAtLower: return std::max(0.0, -d);
    case VarStatus::kAtUpper: return std::max(0.0, d);
    case VarStatus::kBasic: return std::abs(d);
  }
  return std::abs(d);
}

/// True when `sol` carries one basis status per column and per row of
/// `model`: the statuses the dual-side audit checks the signs against.
bool has_basis(const Model& model, const Solution& sol) {
  return sol.basis.structurals.size() == model.num_variables() &&
         sol.basis.logicals.size() == model.num_constraints();
}

/// Dual-side consistency shared by the optimal and infeasible audits:
/// reduced-cost signs for the reported basis statuses plus row-dual signs
/// against the row senses (requires has_basis). Returns the worst violation
/// magnitude, each column's relative to max(1, |c_j|): its reduced cost
/// c_j - y^T A_j carries roundoff on the scale of c_j, so a large cost must
/// not read as corruption. Row duals are logical columns with cost 0.
double dual_consistency(const Model& model, const Solution& sol,
                        const std::vector<double>& d) {
  const bool minimize = model.objective_sense() == Objective::kMinimize;
  const double flip = minimize ? 1.0 : -1.0;
  double worst = 0.0;

  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    const VarStatus status = sol.basis.structurals[j];
    // Fixed columns (lower == upper) have no sign constraint.
    if (status != VarStatus::kBasic && model.lower(j) == model.upper(j)) {
      continue;
    }
    worst = std::max(worst, sign_violation(flip * d[j], status) /
                                std::max(1.0, std::abs(model.objective(j))));
  }

  // Row duals are the logical columns' reduced costs in disguise: a <= row's
  // slack has d_slack = -y_r, so y_r <= 0 while the slack sits at lower
  // (minimize). When the logical is basic the row is non-binding and y_r
  // must vanish.
  for (std::size_t r = 0; r < model.num_constraints(); ++r) {
    const double yr = flip * sol.duals[r];
    switch (model.row_sense(r)) {
      case Sense::kLessEqual:
        if (sol.basis.logicals[r] == VarStatus::kBasic) {
          worst = std::max(worst, std::abs(yr));
        } else {
          worst = std::max(worst, std::max(0.0, yr));
        }
        break;
      case Sense::kGreaterEqual:
        if (sol.basis.logicals[r] == VarStatus::kBasic) {
          worst = std::max(worst, std::abs(yr));
        } else {
          worst = std::max(worst, std::max(0.0, -yr));
        }
        break;
      case Sense::kEqual:
        break;  // equality duals are sign-free
    }
  }
  return worst;
}

AuditVerdict classify(double worst_ratio) {
  if (!std::isfinite(worst_ratio) || worst_ratio > 1e6) {
    return AuditVerdict::kFailed;
  }
  return worst_ratio <= 1.0 ? AuditVerdict::kClean : AuditVerdict::kSuspect;
}

}  // namespace

AuditReport audit_solution(const Model& model, const Solution& solution) {
  AuditReport report;
  const double slack = kAuditSlack;
  const double row_slack = slack * 10.0;

  if (solution.status == SolveStatus::kInfeasible) {
    // An infeasibility claim prunes search trees, so it deserves scrutiny,
    // but there is no x to check. What we can audit is the evidence: the
    // final duals must at least be finite and sign-consistent with the
    // reported basis — a corrupted solve that "concluded" infeasibility
    // typically leaves neither.
    //
    // Sign consistency is necessary, not sufficient: a fault can steer a
    // solve to a wrong "infeasible" exit whose duals are nonetheless
    // sign-clean. When the injector recorded a fault actually firing in
    // this solve, that weak evidence cannot certify the claim — contest it
    // and let the ladder's fault-free re-solve settle it (genuine
    // infeasibility survives the re-solve unchanged).
    if (solution.faults_injected > 0) {
      report.verdict = AuditVerdict::kSuspect;
      report.complaint = "infeasibility claim from a fault-injected solve";
      return report;
    }
    if (solution.duals.size() != model.num_constraints() ||
        !has_basis(model, solution)) {
      report.verdict = AuditVerdict::kSkipped;
      return report;
    }
    if (!all_finite(solution.duals)) {
      report.verdict = AuditVerdict::kFailed;
      report.complaint = "non-finite duals on an infeasibility claim";
      return report;
    }
    const std::vector<double> d = reduced_costs(model, solution.duals);
    report.dual_residual = dual_consistency(model, solution, d);
    report.verdict = classify(report.dual_residual / slack);
    if (report.verdict != AuditVerdict::kClean) {
      report.complaint = "sign-inconsistent duals on an infeasibility claim";
    }
    return report;
  }

  if (solution.status == SolveStatus::kUnbounded) {
    // The scheduling LPs all have bounded feasible regions, so an
    // unboundedness claim under guard is itself evidence of corruption
    // (a NaN-poisoned ratio test reports "no blocking row"). Contest it and
    // let the ladder's fault-free re-solves confirm it.
    report.verdict = AuditVerdict::kSuspect;
    report.complaint = "unboundedness claim under guard";
    return report;
  }

  if (solution.status != SolveStatus::kOptimal ||
      solution.x.size() != model.num_variables() ||
      solution.duals.size() != model.num_constraints() ||
      !has_basis(model, solution)) {
    report.verdict = AuditVerdict::kSkipped;
    return report;
  }

  if (!all_finite(solution.x) || !all_finite(solution.duals) ||
      !std::isfinite(solution.objective)) {
    report.verdict = AuditVerdict::kFailed;
    report.complaint = "non-finite primal/dual values";
    return report;
  }

  // Primal side: bounds, then sense-aware row residuals.
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    const double below = model.lower(j) - solution.x[j];
    const double above = solution.x[j] - model.upper(j);
    report.bound_violation =
        std::max(report.bound_violation, std::max(below, above));
  }
  for (std::size_t r = 0; r < model.num_constraints(); ++r) {
    const double activity = model.row_activity(r, solution.x);
    const double gap = activity - model.rhs(r);
    double violation = 0.0;
    switch (model.row_sense(r)) {
      case Sense::kLessEqual: violation = std::max(0.0, gap); break;
      case Sense::kGreaterEqual: violation = std::max(0.0, -gap); break;
      case Sense::kEqual: violation = std::abs(gap); break;
    }
    report.primal_residual = std::max(report.primal_residual, violation);
  }

  // Dual side: reduced-cost signs for the reported statuses.
  const std::vector<double> d = reduced_costs(model, solution.duals);
  report.dual_residual = dual_consistency(model, solution, d);

  // Primal/dual objective agreement. For a consistent basic solution,
  // c^T x = y^T b + sum_j d_j x_j holds up to roundoff: a dual that is
  // nonzero on a non-binding row, or a reduced cost that disagrees with the
  // activity, breaks the identity.
  double primal_obj = 0.0;
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    primal_obj += model.objective(j) * solution.x[j];
  }
  double dual_obj = 0.0;
  for (std::size_t r = 0; r < model.num_constraints(); ++r) {
    dual_obj += solution.duals[r] * model.rhs(r);
  }
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    dual_obj += d[j] * solution.x[j];
  }
  const double scale =
      std::max({1.0, std::abs(primal_obj), std::abs(dual_obj)});
  // Two claims must agree with the recomputed c^T x: the dual objective
  // (complementary slackness in aggregate) and the solver's own reported
  // objective value — a solution whose `objective` field disagrees with its
  // x is lying about one of them.
  report.objective_gap =
      std::max(std::abs(primal_obj - dual_obj),
               std::abs(primal_obj - solution.objective)) /
      scale;

  const double worst =
      std::max({report.bound_violation / slack,
                report.primal_residual / row_slack,
                report.dual_residual / slack,
                report.objective_gap / row_slack});
  report.verdict = classify(worst);
  if (report.verdict != AuditVerdict::kClean) {
    if (report.bound_violation > slack) {
      report.complaint = "bound violation";
    } else if (report.primal_residual > row_slack) {
      report.complaint = "primal row residual";
    } else if (report.dual_residual > slack) {
      report.complaint = "reduced-cost sign inconsistency";
    } else {
      report.complaint = "primal/dual objective disagreement";
    }
  }
  return report;
}

}  // namespace setsched::lp
