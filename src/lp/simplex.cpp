#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/matrix.h"
#include "lp/guard.h"
#include "obs/phase.h"
#include "obs/trace.h"

namespace setsched::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

enum class VarState : std::uint8_t { kBasic, kAtLower, kAtUpper };

/// Internal solver state. Column layout: structural | slack | artificial.
/// Structural columns are shifted so every lower bound is 0. Rows are
/// normalized to rhs >= 0 before choosing the initial basis.
class Tableau {
 public:
  Tableau(const Model& model, const SimplexOptions& options)
      : model_(model), opt_(options) {}

  Solution run();

 private:
  void build();
  bool phase(bool phase_one, Solution& out);
  void drive_out_artificials();
  void pivot(std::size_t row, std::size_t col);
  void rebuild_cost_row(const std::vector<double>& costs);
  [[nodiscard]] Solution extract(SolveStatus status) const;

  const Model& model_;
  SimplexOptions opt_;

  std::size_t nrows_ = 0;
  std::size_t nstruct_ = 0;  // structural columns
  std::size_t ncols_ = 0;    // structural + slack + artificial

  Matrix<double> t_;                   // nrows x ncols, holds B^-1 A
  std::vector<double> basic_value_;    // value of the basic var per row
  std::vector<std::size_t> basis_;     // column basic in each row
  std::vector<VarState> state_;        // per column
  std::vector<double> ub_;             // per column (lower bounds are 0)
  std::vector<double> shift_;          // original lower bound per structural
  std::vector<double> phase2_cost_;    // per column (internal minimize)
  std::vector<double> cost_row_;       // current reduced costs
  std::vector<std::size_t> row_unit_col_;  // slack/artificial giving e_r
  std::vector<double> row_unit_sign_;
  std::vector<std::size_t> artificial_cols_;
  std::size_t iterations_ = 0;
  std::size_t max_iterations_ = 0;
  bool use_bland_ = false;
  std::size_t stall_count_ = 0;
  double sign_ = 1.0;  // +1 minimize, -1 maximize (internal minimize)

  // Audit-mode snapshot of the initial (normalized) system.
  Matrix<double> a0_;
  std::vector<double> b0_;

  /// Recovers the value of every column from the solver state.
  [[nodiscard]] std::vector<double> current_values() const {
    std::vector<double> value(ncols_, 0.0);
    for (std::size_t j = 0; j < ncols_; ++j) {
      if (state_[j] == VarState::kAtUpper) value[j] = ub_[j];
    }
    for (std::size_t r = 0; r < nrows_; ++r) value[basis_[r]] = basic_value_[r];
    return value;
  }

  /// Verifies A0 * value == b0 and bound feasibility (audit mode). The
  /// slacks are the shared named tolerances of SimplexOptions: audit_slack()
  /// on bounds, with the 10x row cushion on the row equations (rows
  /// accumulate a term per column).
  void audit_check(const char* where) const {
    const auto value = current_values();
    const double slack = opt_.audit_slack();
    for (std::size_t j = 0; j < ncols_; ++j) {
      check(value[j] >= -slack, std::string("audit(") + where +
                                    "): variable below lower bound");
      if (std::isfinite(ub_[j])) {
        check(value[j] <= ub_[j] + slack, std::string("audit(") + where +
                                              "): variable above upper bound");
      }
    }
    for (std::size_t r = 0; r < nrows_; ++r) {
      double lhs = 0.0;
      for (std::size_t j = 0; j < ncols_; ++j) lhs += a0_(r, j) * value[j];
      check(std::abs(lhs - b0_[r]) < slack * 10.0,
            std::string("audit(") + where + "): row equation violated");
    }
  }
};

void Tableau::build() {
  nrows_ = model_.num_constraints();
  nstruct_ = model_.num_variables();
  sign_ = model_.objective_sense() == Objective::kMinimize ? 1.0 : -1.0;

  // Column bookkeeping for structural variables (shift lower bounds to 0).
  shift_.resize(nstruct_);
  ub_.assign(nstruct_, kInf);
  for (std::size_t j = 0; j < nstruct_; ++j) {
    shift_[j] = model_.lower(j);
    const double u = model_.upper(j);
    ub_[j] = std::isfinite(u) ? u - shift_[j] : kInf;
  }

  // One slack per inequality row; artificials are assigned after we know the
  // normalized row signs. First pass: count slacks.
  std::vector<std::size_t> slack_col(nrows_, SIZE_MAX);
  std::size_t next = nstruct_;
  for (std::size_t r = 0; r < nrows_; ++r) {
    if (model_.row_sense(r) != Sense::kEqual) slack_col[r] = next++;
  }
  // Artificial for every row (unused ones stay fixed at 0 and never enter).
  artificial_cols_.resize(nrows_);
  for (std::size_t r = 0; r < nrows_; ++r) artificial_cols_[r] = next++;
  ncols_ = next;

  ub_.resize(ncols_, kInf);
  t_ = Matrix<double>(nrows_, ncols_, 0.0);
  basic_value_.assign(nrows_, 0.0);
  basis_.assign(nrows_, SIZE_MAX);
  state_.assign(ncols_, VarState::kAtLower);
  row_unit_col_.assign(nrows_, SIZE_MAX);
  row_unit_sign_.assign(nrows_, 1.0);

  for (std::size_t r = 0; r < nrows_; ++r) {
    // rhs adjusted for the lower-bound shift of structural variables.
    double b = model_.rhs(r);
    for (const Entry& e : model_.row(r)) b -= e.value * shift_[e.col];

    double slack_sign = 0.0;
    switch (model_.row_sense(r)) {
      case Sense::kLessEqual:
        slack_sign = 1.0;
        break;
      case Sense::kGreaterEqual:
        slack_sign = -1.0;
        break;
      case Sense::kEqual:
        slack_sign = 0.0;
        break;
    }

    const double row_sign = b < 0.0 ? -1.0 : 1.0;
    b *= row_sign;
    for (const Entry& e : model_.row(r)) {
      t_(r, e.col) += row_sign * e.value;
    }
    if (slack_col[r] != SIZE_MAX) {
      t_(r, slack_col[r]) = row_sign * slack_sign;
    }
    t_(r, artificial_cols_[r]) = 1.0;

    // Initial basis: the slack if its coefficient is +1, else the artificial.
    if (slack_col[r] != SIZE_MAX && row_sign * slack_sign > 0.0) {
      basis_[r] = slack_col[r];
      ub_[artificial_cols_[r]] = 0.0;  // artificial never needed
    } else {
      basis_[r] = artificial_cols_[r];
    }
    state_[basis_[r]] = VarState::kBasic;
    basic_value_[r] = b;

    // Unit column for dual recovery: prefer the artificial (exact identity).
    row_unit_col_[r] = artificial_cols_[r];
    row_unit_sign_[r] = row_sign;  // A_art = row_sign * e_r in original rows
  }

  // Internal phase-2 costs (minimization).
  phase2_cost_.assign(ncols_, 0.0);
  for (std::size_t j = 0; j < nstruct_; ++j) {
    phase2_cost_[j] = sign_ * model_.objective(j);
  }

  max_iterations_ = opt_.max_iterations != 0
                        ? opt_.max_iterations
                        : 400 * (nrows_ + ncols_) + 10000;

  if (opt_.audit) {
    a0_ = t_;  // t_ holds the untouched normalized system before any pivot
    b0_ = basic_value_;
    audit_check("build");
  }
}

void Tableau::rebuild_cost_row(const std::vector<double>& costs) {
  cost_row_ = costs;
  // d_j = c_j - c_B^T (B^-1 A_j); subtract each basic row scaled by c_B.
  for (std::size_t r = 0; r < nrows_; ++r) {
    const double cb = costs[basis_[r]];
    if (cb == 0.0) continue;
    const double* row = t_.row(r);
    for (std::size_t j = 0; j < ncols_; ++j) cost_row_[j] -= cb * row[j];
  }
  // Basic columns have exact zero reduced cost by construction.
  for (std::size_t r = 0; r < nrows_; ++r) cost_row_[basis_[r]] = 0.0;
}

void Tableau::pivot(std::size_t prow, std::size_t pcol) {
  double* piv_row = t_.row(prow);
  const double piv = piv_row[pcol];
  const double inv = 1.0 / piv;
  for (std::size_t j = 0; j < ncols_; ++j) piv_row[j] *= inv;
  piv_row[pcol] = 1.0;  // kill roundoff

  for (std::size_t r = 0; r < nrows_; ++r) {
    if (r == prow) continue;
    double* row = t_.row(r);
    const double factor = row[pcol];
    if (factor == 0.0) continue;
    for (std::size_t j = 0; j < ncols_; ++j) row[j] -= factor * piv_row[j];
    row[pcol] = 0.0;
  }
  {
    const double factor = cost_row_[pcol];
    if (factor != 0.0) {
      for (std::size_t j = 0; j < ncols_; ++j) {
        cost_row_[j] -= factor * piv_row[j];
      }
      cost_row_[pcol] = 0.0;
    }
  }
}

bool Tableau::phase(bool phase_one, Solution& out) {
  // Returns false if the overall solve should stop (status set in `out`).
  while (true) {
    if (iterations_ >= max_iterations_) {
      out = extract(SolveStatus::kIterationLimit);
      return false;
    }

    // --- pricing ---
    std::size_t enter = SIZE_MAX;
    double best_score = opt_.opt_tol;
    for (std::size_t j = 0; j < ncols_; ++j) {
      if (state_[j] == VarState::kBasic) continue;
      if (ub_[j] == 0.0) continue;  // fixed (disabled artificials)
      const double d = cost_row_[j];
      double score = 0.0;
      if (state_[j] == VarState::kAtLower && d < -opt_.opt_tol) {
        score = -d;
      } else if (state_[j] == VarState::kAtUpper && d > opt_.opt_tol) {
        score = d;
      } else {
        continue;
      }
      if (use_bland_) {
        enter = j;  // first eligible index
        break;
      }
      if (score > best_score) {
        best_score = score;
        enter = j;
      }
    }
    if (enter == SIZE_MAX) return true;  // phase optimal

    const bool from_lower = state_[enter] == VarState::kAtLower;
    // Moving the entering variable by step t >= 0 changes each basic value
    // by -dir * t_(r, enter) * t.
    const double dir = from_lower ? 1.0 : -1.0;

    // --- ratio test over basic variables ---
    double row_t = kInf;
    std::size_t leave_row = SIZE_MAX;
    bool leave_to_upper = false;
    for (std::size_t r = 0; r < nrows_; ++r) {
      const double a = dir * t_(r, enter);
      if (std::abs(a) < opt_.pivot_tol) continue;
      double t;
      bool to_upper;
      if (a > 0.0) {
        // basic decreases, hits 0
        t = basic_value_[r] / a;
        to_upper = false;
      } else {
        // basic increases, hits its upper bound (if finite)
        const double u = ub_[basis_[r]];
        if (!std::isfinite(u)) continue;
        t = (u - basic_value_[r]) / (-a);
        to_upper = true;
      }
      t = std::max(t, 0.0);
      const bool better =
          t < row_t - opt_.ratio_tie_tol() ||
          (t <= row_t + opt_.ratio_tie_tol() && leave_row != SIZE_MAX &&
           basis_[r] < basis_[leave_row]);  // Bland-friendly tie-break
      if (leave_row == SIZE_MAX ? t < row_t : better) {
        row_t = t;
        leave_row = r;
        leave_to_upper = to_upper;
      }
    }

    const double flip_t = ub_[enter];  // distance to the opposite bound
    if (leave_row == SIZE_MAX && !std::isfinite(flip_t)) {
      out = extract(phase_one ? SolveStatus::kInfeasible
                              : SolveStatus::kUnbounded);
      return false;
    }

    const bool do_flip = leave_row == SIZE_MAX || flip_t < row_t;
    const double step = do_flip ? flip_t : row_t;

    ++iterations_;
    if (step <= opt_.feas_tol) {
      ++stall_count_;
      if (stall_count_ > 2 * (nrows_ + ncols_)) use_bland_ = true;
    } else {
      stall_count_ = 0;
    }

    // --- apply step to the current basic values (pre-pivot column) ---
    for (std::size_t r = 0; r < nrows_; ++r) {
      basic_value_[r] -= dir * t_(r, enter) * step;
      if (basic_value_[r] < 0.0 && basic_value_[r] > -opt_.feas_tol) {
        basic_value_[r] = 0.0;  // clamp roundoff
      }
    }

    if (do_flip) {
      state_[enter] = from_lower ? VarState::kAtUpper : VarState::kAtLower;
      if (opt_.audit) audit_check("flip");
      continue;
    }

    // Basis change.
    const std::size_t leaving = basis_[leave_row];
    state_[leaving] = leave_to_upper ? VarState::kAtUpper : VarState::kAtLower;
    basis_[leave_row] = enter;
    state_[enter] = VarState::kBasic;
    basic_value_[leave_row] = from_lower ? step : ub_[enter] - step;
    pivot(leave_row, enter);
    if (opt_.audit) audit_check("pivot");
  }
}

void Tableau::drive_out_artificials() {
  // Artificial columns form the tail block of the tableau. Phase 1 ended
  // with every basic artificial at value ~0 (within tolerance); we snap the
  // residual to exactly 0 and perform degenerate pivots in which the
  // entering variable keeps its current value (0 if at lower bound, u if at
  // upper bound) — the basis is relabeled, no variable moves.
  for (std::size_t r = 0; r < nrows_; ++r) {
    const std::size_t b = basis_[r];
    if (b < artificial_cols_.front()) continue;
    basic_value_[r] = 0.0;  // snap the ~0 artificial residual

    // Pick the non-artificial nonbasic column with the largest pivot.
    std::size_t col = SIZE_MAX;
    double best_mag = opt_.pivot_tol * 10;
    for (std::size_t j = 0; j < artificial_cols_.front(); ++j) {
      if (state_[j] == VarState::kBasic) continue;
      const double mag = std::abs(t_(r, j));
      if (mag > best_mag) {
        best_mag = mag;
        col = j;
      }
    }
    if (col != SIZE_MAX) {
      const double entering_value =
          state_[col] == VarState::kAtUpper ? ub_[col] : 0.0;
      const std::size_t leaving = basis_[r];
      state_[leaving] = VarState::kAtLower;
      basis_[r] = col;
      state_[col] = VarState::kBasic;
      pivot(r, col);
      basic_value_[r] = entering_value;
    }
    // Otherwise the row is redundant; the artificial stays basic at 0.
  }
  // No artificial may ever re-enter.
  for (const std::size_t a : artificial_cols_) {
    if (state_[a] != VarState::kBasic) ub_[a] = 0.0;
  }
  if (opt_.audit) audit_check("drive_out");
}

Solution Tableau::extract(SolveStatus status) const {
  Solution sol;
  sol.status = status;
  sol.iterations = iterations_;
  if (status != SolveStatus::kOptimal) return sol;

  std::vector<double> value(ncols_, 0.0);
  for (std::size_t j = 0; j < ncols_; ++j) {
    if (state_[j] == VarState::kAtUpper) value[j] = ub_[j];
  }
  for (std::size_t r = 0; r < nrows_; ++r) value[basis_[r]] = basic_value_[r];

  sol.x.resize(nstruct_);
  sol.basic.assign(nstruct_, false);
  for (std::size_t j = 0; j < nstruct_; ++j) {
    sol.x[j] = value[j] + shift_[j];
    sol.basic[j] = state_[j] == VarState::kBasic;
  }
  sol.objective = 0.0;
  for (std::size_t j = 0; j < nstruct_; ++j) {
    sol.objective += model_.objective(j) * sol.x[j];
  }

  // Duals from the unit (artificial) columns: the final cost row holds
  //   d_a = c_a - y_int^T (row_sign * e_r)  with c_a = 0
  // => y_int_r = -row_sign * d_a ; convert to the user's sense.
  sol.duals.resize(nrows_);
  for (std::size_t r = 0; r < nrows_; ++r) {
    const double d = cost_row_[row_unit_col_[r]];
    const double y_internal = -row_unit_sign_[r] * d;
    sol.duals[r] = sign_ * y_internal;
  }
  return sol;
}

Solution Tableau::run() {
  build();

  Solution out;
  // Phase 1: minimize the sum of artificials (those that started basic).
  bool need_phase1 = false;
  std::vector<double> phase1_cost(ncols_, 0.0);
  for (std::size_t r = 0; r < nrows_; ++r) {
    if (basis_[r] == artificial_cols_[r]) {
      phase1_cost[artificial_cols_[r]] = 1.0;
      if (basic_value_[r] > opt_.feas_tol) need_phase1 = true;
    }
  }
  if (need_phase1) {
    rebuild_cost_row(phase1_cost);
    if (!phase(/*phase_one=*/true, out)) return out;
    double infeas = 0.0;
    for (std::size_t r = 0; r < nrows_; ++r) {
      if (phase1_cost[basis_[r]] > 0.0) infeas += basic_value_[r];
    }
    if (infeas > opt_.feas_tol * std::max<double>(1.0, static_cast<double>(nrows_))) {
      return extract(SolveStatus::kInfeasible);
    }
    drive_out_artificials();
  } else {
    // Disable artificials that never served.
    for (const std::size_t a : artificial_cols_) {
      if (state_[a] != VarState::kBasic) ub_[a] = 0.0;
    }
  }

  use_bland_ = false;
  stall_count_ = 0;
  rebuild_cost_row(phase2_cost_);
  if (!phase(/*phase_one=*/false, out)) return out;
  return extract(SolveStatus::kOptimal);
}

}  // namespace

Solution solve_tableau(const Model& model, const SimplexOptions& options) {
  check(model.num_constraints() > 0, "LP needs at least one constraint");
  check(model.num_variables() > 0, "LP needs at least one variable");
  const obs::PhaseTimer timer(obs::Phase::kLpSolve);
  obs::TraceSpan span("lp_solve", "lp");
  Tableau tableau(model, options);
  Solution sol = tableau.run();
  span.set_arg("iterations", static_cast<double>(sol.iterations));
  return sol;
}

namespace {

Solution dispatch(const Model& model, const SimplexOptions& options,
                  Workspace& workspace) {
  switch (options.algorithm) {
    case SimplexAlgorithm::kTableau:
      return solve_tableau(model, options);
    case SimplexAlgorithm::kDual:
      // The sparse revised solver, preferring the dual loop for every
      // dual-feasible start (solve_revised reads options.algorithm).
      return solve_revised(model, options, workspace);
    case SimplexAlgorithm::kAuto:
      break;
  }
  // Audit mode instruments the dense tableau (the reference oracle); every
  // other automatic solve takes the sparse revised path (which re-optimizes
  // warm primal-infeasible/dual-feasible bases with the dual simplex).
  if (options.audit) return solve_tableau(model, options);
  return solve_revised(model, options, workspace);
}

/// Guarded solve: audit the primary answer, and on a contested verdict walk
/// the recovery escalation ladder — refactorize-and-warm-re-solve from the
/// contested basis, then a cold solve, then the audited dense tableau
/// oracle. Recovery solves run fault-free: injected faults model transient
/// corruption, and the ladder's job is to clear it, not re-roll the dice.
Solution solve_guarded(const Model& model, const SimplexOptions& options,
                       Workspace& workspace) {
  Solution sol = dispatch(model, options, workspace);
  const AuditReport primary = audit_solution(model, sol, options);
  sol.audit_verdict = primary.verdict;
  if (!sol.audit_contested()) return sol;

  // The dense tableau is this ladder's oracle; a contested tableau solve has
  // nowhere to escalate, so hand the verdict straight to the caller (which
  // demotes the answer instead of acting on it).
  if (options.algorithm == SimplexAlgorithm::kTableau) {
    sol.audits_suspect = 1;
    return sol;
  }

  std::size_t audits_suspect = 1;
  // The ladder's work is summed into whichever answer it returns.
  std::size_t iterations = sol.iterations;
  std::size_t factorizations = sol.factorizations;
  std::size_t lu_nnz = sol.lu_nnz;
  const std::size_t faults = sol.faults_injected;
  obs::emit_instant("lp_audit_suspect", "lp", "complaint", primary.complaint);

  SimplexOptions retry = options;
  retry.guard = false;
  retry.fault_plan = nullptr;

  // Rungs 1 and 2. Every revised solve refactorizes on entry, so adopting
  // the contested end basis re-derives all numerics from the model data
  // (rung 1); the cold solve additionally discards the basis itself
  // (rung 2).
  const Basis warm = sol.basis;
  for (int rung = 1; rung <= 2; ++rung) {
    if (rung == 1) {
      if (warm.empty()) continue;
      retry.warm_start = &warm;
    } else {
      retry.warm_start = nullptr;
    }
    Solution again = solve_revised(model, retry, workspace);
    iterations += again.iterations;
    factorizations += again.factorizations;
    lu_nnz += again.lu_nnz;
    const AuditReport audit = audit_solution(model, again, retry);
    again.audit_verdict = audit.verdict;
    if (!again.audit_contested()) {
      again.iterations = iterations;
      again.factorizations = factorizations;
      again.lu_nnz = lu_nnz;
      again.faults_injected = faults;
      again.audits_suspect = audits_suspect;
      again.recoveries = 1;
      obs::emit_instant("lp_recovery", "lp", nullptr, nullptr, "rung",
                        static_cast<double>(rung));
      return again;
    }
    ++audits_suspect;
  }

  // Rung 3: the audited tableau oracle — per-pivot self-checks on, so an
  // answer that comes back at all is the reference answer. A post-audit that
  // is merely kSkipped (e.g. an infeasible claim without duals) counts as
  // clean here: the oracle's claim is as good as this library gets.
  retry.warm_start = nullptr;
  retry.audit = true;
  Solution oracle = solve_tableau(model, retry);
  iterations += oracle.iterations;
  const AuditReport audit = audit_solution(model, oracle, retry);
  oracle.audit_verdict = audit.verdict == AuditVerdict::kSkipped
                             ? AuditVerdict::kClean
                             : audit.verdict;
  oracle.iterations = iterations;
  oracle.factorizations = factorizations;
  oracle.lu_nnz = lu_nnz;
  oracle.faults_injected = faults;
  oracle.audits_suspect = audits_suspect;
  oracle.oracle_fallbacks = 1;
  obs::emit_instant("lp_oracle_fallback", "lp", "complaint",
                    primary.complaint);
  return oracle;
}

}  // namespace

Solution solve(const Model& model, const SimplexOptions& options) {
  Workspace workspace;
  return solve(model, options, workspace);
}

Solution solve(const Model& model, const SimplexOptions& options,
               Workspace& workspace) {
  if (options.guard) return solve_guarded(model, options, workspace);
  return dispatch(model, options, workspace);
}

}  // namespace setsched::lp
