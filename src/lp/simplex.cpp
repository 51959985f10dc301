#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/matrix.h"
#include "lp/guard.h"
#include "lp/tolerances.h"
#include "obs/trace.h"

namespace setsched::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Internal solver state. Column layout: structural | slack | artificial.
/// Structural columns are shifted so every lower bound is 0. Rows are
/// normalized to rhs >= 0 before choosing the initial basis.
class Tableau {
 public:
  explicit Tableau(const Model& model) : model_(model) {}

  Solution run();

 private:
  void build();
  bool phase(bool phase_one, Solution& out);
  void drive_out_artificials();
  void pivot(std::size_t row, std::size_t col);
  void rebuild_cost_row(const std::vector<double>& costs);
  [[nodiscard]] Solution extract(SolveStatus status) const;

  const Model& model_;

  std::size_t nrows_ = 0;
  std::size_t nstruct_ = 0;  // structural columns
  std::size_t ncols_ = 0;    // structural + slack + artificial

  Matrix<double> t_;                   // nrows x ncols, holds B^-1 A
  std::vector<double> basic_value_;    // value of the basic var per row
  std::vector<std::size_t> basis_;     // column basic in each row
  std::vector<VarStatus> state_;       // per column
  std::vector<double> ub_;             // per column (lower bounds are 0)
  std::vector<double> shift_;          // original lower bound per structural
  std::vector<double> phase2_cost_;    // per column (internal minimize)
  std::vector<double> cost_row_;       // current reduced costs
  std::vector<std::size_t> row_unit_col_;  // slack/artificial giving e_r
  std::vector<double> row_unit_sign_;
  std::vector<std::size_t> slack_cols_;  // per row; SIZE_MAX for = rows
  std::vector<std::size_t> artificial_cols_;
  std::size_t iterations_ = 0;
  std::size_t max_iterations_ = 0;
  bool use_bland_ = false;
  std::size_t stall_count_ = 0;
  double sign_ = 1.0;  // +1 minimize, -1 maximize (internal minimize)
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
  slack_cols_.assign(nrows_, SIZE_MAX);
  std::size_t next = nstruct_;
  for (std::size_t r = 0; r < nrows_; ++r) {
    if (model_.row_sense(r) != Sense::kEqual) slack_cols_[r] = next++;
  }
  // Artificial for every row (unused ones stay fixed at 0 and never enter).
  artificial_cols_.resize(nrows_);
  for (std::size_t r = 0; r < nrows_; ++r) artificial_cols_[r] = next++;
  ncols_ = next;

  ub_.resize(ncols_, kInf);
  t_ = Matrix<double>(nrows_, ncols_, 0.0);
  basic_value_.assign(nrows_, 0.0);
  basis_.assign(nrows_, SIZE_MAX);
  state_.assign(ncols_, VarStatus::kAtLower);
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
    if (slack_cols_[r] != SIZE_MAX) {
      t_(r, slack_cols_[r]) = row_sign * slack_sign;
    }
    t_(r, artificial_cols_[r]) = 1.0;

    // Initial basis: the slack if its coefficient is +1, else the artificial.
    if (slack_cols_[r] != SIZE_MAX && row_sign * slack_sign > 0.0) {
      basis_[r] = slack_cols_[r];
      ub_[artificial_cols_[r]] = 0.0;  // artificial never needed
    } else {
      basis_[r] = artificial_cols_[r];
    }
    state_[basis_[r]] = VarStatus::kBasic;
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

  max_iterations_ = 400 * (nrows_ + ncols_) + 10000;
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
    double best_score = kOptTol;
    for (std::size_t j = 0; j < ncols_; ++j) {
      if (state_[j] == VarStatus::kBasic) continue;
      if (ub_[j] == 0.0) continue;  // fixed (disabled artificials)
      const double d = cost_row_[j];
      double score = 0.0;
      if (state_[j] == VarStatus::kAtLower && d < -kOptTol) {
        score = -d;
      } else if (state_[j] == VarStatus::kAtUpper && d > kOptTol) {
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

    const bool from_lower = state_[enter] == VarStatus::kAtLower;
    // Moving the entering variable by step t >= 0 changes each basic value
    // by -dir * t_(r, enter) * t.
    const double dir = from_lower ? 1.0 : -1.0;

    // --- ratio test over basic variables ---
    double row_t = kInf;
    std::size_t leave_row = SIZE_MAX;
    bool leave_to_upper = false;
    for (std::size_t r = 0; r < nrows_; ++r) {
      const double a = dir * t_(r, enter);
      if (std::abs(a) < kPivotTol) continue;
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
          t < row_t - kRatioTieTol ||
          (t <= row_t + kRatioTieTol && leave_row != SIZE_MAX &&
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
    if (step <= kFeasTol) {
      ++stall_count_;
      if (stall_count_ > 2 * (nrows_ + ncols_)) use_bland_ = true;
    } else {
      stall_count_ = 0;
    }

    // --- apply step to the current basic values (pre-pivot column) ---
    for (std::size_t r = 0; r < nrows_; ++r) {
      basic_value_[r] -= dir * t_(r, enter) * step;
      if (basic_value_[r] < 0.0 && basic_value_[r] > -kFeasTol) {
        basic_value_[r] = 0.0;  // clamp roundoff
      }
    }

    if (do_flip) {
      state_[enter] = from_lower ? VarStatus::kAtUpper : VarStatus::kAtLower;
      continue;
    }

    // Basis change.
    const std::size_t leaving = basis_[leave_row];
    state_[leaving] = leave_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
    basis_[leave_row] = enter;
    state_[enter] = VarStatus::kBasic;
    basic_value_[leave_row] = from_lower ? step : ub_[enter] - step;
    pivot(leave_row, enter);
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
    double best_mag = kPivotTol * 10;
    for (std::size_t j = 0; j < artificial_cols_.front(); ++j) {
      if (state_[j] == VarStatus::kBasic) continue;
      const double mag = std::abs(t_(r, j));
      if (mag > best_mag) {
        best_mag = mag;
        col = j;
      }
    }
    if (col != SIZE_MAX) {
      const double entering_value =
          state_[col] == VarStatus::kAtUpper ? ub_[col] : 0.0;
      const std::size_t leaving = basis_[r];
      state_[leaving] = VarStatus::kAtLower;
      basis_[r] = col;
      state_[col] = VarStatus::kBasic;
      pivot(r, col);
      basic_value_[r] = entering_value;
    }
    // Otherwise the row is redundant; the artificial stays basic at 0.
  }
  // No artificial may ever re-enter.
  for (const std::size_t a : artificial_cols_) {
    if (state_[a] != VarStatus::kBasic) ub_[a] = 0.0;
  }
}

Solution Tableau::extract(SolveStatus status) const {
  Solution sol;
  sol.status = status;
  sol.iterations = iterations_;
  if (status != SolveStatus::kOptimal) return sol;

  std::vector<double> value(ncols_, 0.0);
  for (std::size_t j = 0; j < ncols_; ++j) {
    if (state_[j] == VarStatus::kAtUpper) value[j] = ub_[j];
  }
  for (std::size_t r = 0; r < nrows_; ++r) value[basis_[r]] = basic_value_[r];

  sol.x.resize(nstruct_);
  for (std::size_t j = 0; j < nstruct_; ++j) sol.x[j] = value[j] + shift_[j];
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

  // The basis in the revised solver's form (lp/simplex.h): structurals keep
  // their status (lower bounds were shifted to 0), and row r's logical
  // s_r = b_r - a_r^T x is basic when its slack or its artificial is (both
  // are multiples of e_r, so at most one of them is). A >= row's logical
  // lives on (-inf, 0]: a nonbasic slack at 0 puts it at its upper bound.
  sol.basis.structurals.assign(state_.begin(), state_.begin() + nstruct_);
  sol.basis.logicals.assign(nrows_, VarStatus::kAtLower);
  for (std::size_t r = 0; r < nrows_; ++r) {
    const std::size_t slack = slack_cols_[r];
    if (state_[artificial_cols_[r]] == VarStatus::kBasic ||
        (slack != SIZE_MAX && state_[slack] == VarStatus::kBasic)) {
      sol.basis.logicals[r] = VarStatus::kBasic;
    } else if (model_.row_sense(r) == Sense::kGreaterEqual) {
      sol.basis.logicals[r] = VarStatus::kAtUpper;
    }
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
      if (basic_value_[r] > kFeasTol) need_phase1 = true;
    }
  }
  if (need_phase1) {
    rebuild_cost_row(phase1_cost);
    if (!phase(/*phase_one=*/true, out)) return out;
    double infeas = 0.0;
    for (std::size_t r = 0; r < nrows_; ++r) {
      if (phase1_cost[basis_[r]] > 0.0) infeas += basic_value_[r];
    }
    if (infeas > kFeasTol * std::max<double>(1.0, static_cast<double>(nrows_))) {
      return extract(SolveStatus::kInfeasible);
    }
    drive_out_artificials();
  } else {
    // Disable artificials that never served.
    for (const std::size_t a : artificial_cols_) {
      if (state_[a] != VarStatus::kBasic) ub_[a] = 0.0;
    }
  }

  use_bland_ = false;
  stall_count_ = 0;
  rebuild_cost_row(phase2_cost_);
  if (!phase(/*phase_one=*/false, out)) return out;
  return extract(SolveStatus::kOptimal);
}

}  // namespace

Solution solve_tableau(const Model& model) {
  check(model.num_constraints() > 0, "LP needs at least one constraint");
  check(model.num_variables() > 0, "LP needs at least one variable");
  return Tableau(model).run();
}

namespace {

Solution dispatch(const Model& model, const SimplexOptions& options,
                  Workspace& workspace) {
  if (options.algorithm == SimplexAlgorithm::kTableau) {
    return solve_tableau(model);
  }
  // kAuto and kDual: the sparse revised solver, which re-optimizes warm
  // primal-infeasible/dual-feasible bases with the dual simplex (and, under
  // kDual, every dual-feasible start; solve_revised reads the algorithm).
  return solve_revised(model, options, workspace);
}

/// The last rung of the recovery ladder.
constexpr int kLastRung = 3;

/// Guarded solve: audit the primary answer, and on a contested verdict walk
/// the recovery escalation ladder of fault-free revised re-solves. Every
/// revised solve refactorizes on entry, so adopting the contested end basis
/// re-derives all numerics from the model data (rung 1); the cold solve
/// additionally discards the basis itself (rung 2); the last rung solves
/// cold with a fresh LU before every pivot, so no eta file accumulates
/// roundoff (rung 3). Recovery solves run fault-free: injected faults model
/// transient corruption, and the ladder's job is to clear it, not re-roll
/// the dice. A last-rung answer that is still contested is returned
/// contested, and the caller demotes it instead of acting on it.
Solution solve_guarded(const Model& model, const SimplexOptions& options,
                       Workspace& workspace) {
  Solution sol = dispatch(model, options, workspace);
  const AuditReport primary = audit_solution(model, sol);
  sol.audit_verdict = primary.verdict;
  if (!sol.audit_contested()) return sol;

  std::size_t audits_suspect = 1;
  // The ladder's work is summed into whichever answer it returns.
  std::size_t iterations = sol.iterations;
  std::size_t factorizations = sol.factorizations;
  std::size_t lu_nnz = sol.lu_nnz;
  obs::emit_instant("lp_audit_suspect", "lp", "complaint", primary.complaint);

  SimplexOptions retry = options;
  retry.guard = false;
  retry.fault_plan = nullptr;
  const Basis warm = sol.basis;
  int rung = warm.empty() ? 2 : 1;
  Solution again;
  for (;; ++rung) {
    retry.warm_start = rung == 1 ? &warm : nullptr;
    if (rung == kLastRung) retry.refactor_interval = 1;
    again = solve_revised(model, retry, workspace);
    iterations += again.iterations;
    factorizations += again.factorizations;
    lu_nnz += again.lu_nnz;
    again.audit_verdict = audit_solution(model, again).verdict;
    if (!again.audit_contested() || rung == kLastRung) break;
    ++audits_suspect;
  }
  again.iterations = iterations;
  again.factorizations = factorizations;
  again.lu_nnz = lu_nnz;
  again.faults_injected = sol.faults_injected;
  again.audits_suspect = audits_suspect;
  if (rung == kLastRung) {
    again.oracle_fallbacks = 1;
    obs::emit_instant("lp_oracle_fallback", "lp", "complaint",
                      primary.complaint);
  } else {
    again.recoveries = 1;
    obs::emit_instant("lp_recovery", "lp", nullptr, nullptr, "rung",
                      static_cast<double>(rung));
  }
  return again;
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
