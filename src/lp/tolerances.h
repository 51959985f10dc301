#pragma once

/// Named numerical tolerances of the simplex solvers and the residual audit
/// (src/lp). One contract shared by the revised simplex, the tableau oracle
/// and lp/guard.h instead of scattered magic constants; the searchers'
/// counterpart is exact/tolerances.h. tools/lint_invariants.py rejects new
/// raw `1eN` literals in src/lp, so the contract cannot silently re-scatter.
// lint: allow-tolerance-file (named-tolerance definition site)

namespace setsched::lp {

/// Feasibility tolerance on variable values and the rhs.
inline constexpr double kFeasTol = 1e-7;
/// Optimality tolerance on reduced costs.
inline constexpr double kOptTol = 1e-9;
/// Minimum acceptable pivot magnitude.
inline constexpr double kPivotTol = 1e-8;

/// Slack for post-hoc primal checks (bound violations, audited row
/// residuals): a 10x cushion over kFeasTol, since audited quantities have
/// accumulated a whole solve's roundoff. The audit's row checks allow
/// another 10x on top (rows sum many terms).
inline constexpr double kAuditSlack = kFeasTol * 10.0;
/// Pivot row/column agreement: the FTRAN and BTRAN views of the pivot
/// element must agree to this relative tolerance or the dual simplex bails
/// to the primal (a disagreement means the factorization is lying).
inline constexpr double kPivotAgreementTol = kPivotTol * 100.0;
/// Dual-feasibility floor for the dual-simplex prologue: reduced costs may
/// dip this far below optimality-sign and the basis still counts as
/// dual-feasible (warm bases carry primal-scale noise, so the floor never
/// drops below kFeasTol).
inline constexpr double kDualFeasFloor =
    kOptTol * 100.0 > kFeasTol ? kOptTol * 100.0 : kFeasTol;
/// Floor on the LU factorization's acceptable pivot magnitude: a
/// structurally necessary small pivot is better than a spurious singularity
/// (deficient columns are repaired with logicals).
inline constexpr double kLuPivotFloor = kPivotTol > 1e-11 ? kPivotTol : 1e-11;
/// Absolute tie window of the ratio tests (primal leaving row, dual
/// entering column): candidates within this band of the best step length
/// count as tied, and the tie-break (Bland's smallest index when stalling,
/// largest pivot magnitude otherwise) picks among them. Deliberately far
/// below kFeasTol — it only has to separate genuinely equal steps from
/// roundoff-distinct ones, and widening it degenerates the ratio test.
inline constexpr double kRatioTieTol = 1e-12;

}  // namespace setsched::lp
