#pragma once

#include "lp/model.h"
#include "lp/simplex.h"

namespace setsched::lp {

/// Findings of one post-solve residual audit. All magnitudes are worst
/// cases over their check; `complaint` is a static string naming the
/// first check that tripped (nullptr when clean).
struct AuditReport {
  AuditVerdict verdict = AuditVerdict::kSkipped;
  /// max over rows of the sense-aware residual of a_r^T x vs b_r
  /// (<= rows only penalize overshoot, >= rows undershoot).
  double primal_residual = 0.0;
  /// max over columns of bound violation of x_j.
  double bound_violation = 0.0;
  /// max wrong-sign reduced-cost magnitude over nonbasic columns, plus
  /// |d_j| over basic columns (basic reduced costs must vanish), each
  /// divided by max(1, |c_j|).
  double dual_residual = 0.0;
  /// relative disagreement between c^T x and the dual objective
  /// y^T b + sum_j d_j x_j (complementary slackness in aggregate).
  double objective_gap = 0.0;
  const char* complaint = nullptr;
};

/// Audits a finished solve against the model it claims to have solved:
/// primal residuals ||a_r^T x - b_r|| per sense, bound violations,
/// reduced-cost sign consistency for the basis statuses the solution
/// reports, and primal/dual objective agreement. O(nnz + n + m), no solver
/// state needed — everything is recomputed from (model, solution).
///
/// Classification: kClean when every check passes within kAuditSlack
/// (lp/tolerances.h; rows get the 10x row cushion, reduced costs are
/// scaled by max(1, |c_j|)); kFailed on any
/// non-finite value or a violation worse than 1e6 * slack; kSuspect in
/// between. kOptimal solves get the full audit; kInfeasible solves get a
/// dual-consistency audit of the returned duals (an infeasibility claim
/// whose duals are sign-inconsistent or non-finite is not trustworthy
/// evidence); kUnbounded is always contested (the scheduling LPs are
/// bounded, so the claim itself smells of corruption); kIterationLimit is
/// kSkipped (a budget bailout carries no answer to audit), and so is a
/// solution without duals or without a basis of the model's shape.
[[nodiscard]] AuditReport audit_solution(const Model& model,
                                         const Solution& solution);

}  // namespace setsched::lp
