// Bounded-variable dual simplex for the revised solver (see revised.cpp for
// the shared substrate). The dual loop starts from a basis whose reduced
// costs are feasible — a warm basis right after an rhs/bound mutation, or
// any basis of an all-nonnegative-cost model such as the min-makespan node
// relaxations of src/exact — and drives out primal infeasibilities while
// preserving dual feasibility. Each iteration:
//
//   1. pick the leaving slot r by Devex-weighted primal infeasibility
//      (lp/pricing.h: maximize infeas^2 / w_r within the current reference
//      framework);
//   2. BTRAN the unit vector e_r into the pivot row rho = B^-T e_r, then
//      sweep the nonbasic columns once, computing both the row coefficient
//      alpha_rj = rho^T A_j and the reduced cost d_j = c_j - y^T A_j;
//   3. the bounded-variable dual ratio test picks the entering column with
//      the tightest dual step d_j / alpha_rj among the columns whose status
//      allows a move in the direction that repairs slot r (no candidates
//      means the dual is unbounded, i.e. the primal is infeasible);
//   4. FTRAN the entering column, take the primal step that lands the
//      leaving variable exactly on its violated bound, update the Devex row
//      weights from the pivot column, and push the eta.
//
// Degenerate dual steps are allowed; a long stall flips both selections to
// Bland-style smallest-index rules, which terminates finitely. Numerical
// disagreement between the row and column views of the pivot element aborts
// into the composite primal phase 1 (DualOutcome::kFallback) — the dual
// loop is an accelerator, never the only path to a correct answer.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "lp/revised_impl.h"
#include "obs/trace.h"

namespace setsched::lp::internal {

namespace {
constexpr std::size_t kNone = SIZE_MAX;
}  // namespace

bool RevisedSolver::make_dual_feasible(double tol) {
  for (std::size_t k = 0; k < nrows_; ++k) cslot_[k] = cost2_[basis_[k]];
  btran_scratch_ = cslot_;
  btran(btran_scratch_, y_);
  // A boxed column on the wrong bound is dual-feasible on its other bound:
  // the flip changes x_N, hence xb, but no reduced cost. A column fixed
  // while the warm basis was optimal (a pin or a reduced-cost fixing of the
  // exact search) was exempt from the sign test; once its box reopens it
  // may sit on the wrong bound.
  std::vector<std::size_t>& flips = flips_;
  flips.clear();
  for (std::size_t j = 0; j < ncols_; ++j) {
    if (state_[j] == VarStatus::kBasic) continue;
    if (lower_[j] == upper_[j]) continue;  // fixed columns never move
    const double d = reduced_cost(j, /*phase1=*/false);
    const bool wrong = state_[j] == VarStatus::kAtLower ? d < -tol : d > tol;
    if (!wrong) continue;
    if (!std::isfinite(lower_[j]) || !std::isfinite(upper_[j])) return false;
    flips.push_back(j);
  }
  for (const std::size_t j : flips) {
    state_[j] = state_[j] == VarStatus::kAtLower ? VarStatus::kAtUpper
                                                 : VarStatus::kAtLower;
  }
  if (!flips.empty()) compute_basics();
  return true;
}

RevisedSolver::DualOutcome RevisedSolver::run_dual() {
  devex_rows_.reset(nrows_);
  std::size_t dual_stall = 0;
  bool bland = false;
  // run() calls make_dual_feasible() immediately before entering, which left
  // the current basis's duals in y_ — the first iteration reuses them
  // instead of re-running the same BTRAN (probes are only a few pivots long,
  // so one BTRAN per probe is measurable).
  bool duals_ready = true;
  // Incremental dual maintenance: after each pivot y is advanced in
  // place (y += theta_d * rho, rho = B^-T e_leave already computed for the
  // ratio test), replacing the per-iteration BTRAN. The update is
  // cross-checked against an exact BTRAN at every periodic refactorization;
  // drift beyond the audit slack restores the exact duals and drops back to
  // per-iteration BTRANs for the rest of the solve.
  while (true) {
    if (iterations_ >= max_iterations_) return DualOutcome::kIterationLimit;
    if (devex_rows_.overflowed()) devex_rows_.reset(nrows_);

    // Fresh duals of the current basis (phase-2 costs); the ratio test needs
    // reduced costs and extract() reads y_ afterwards.
    if (!duals_ready) {
      for (std::size_t k = 0; k < nrows_; ++k) cslot_[k] = cost2_[basis_[k]];
      btran_scratch_ = cslot_;
      btran(btran_scratch_, y_);
    }
    duals_ready = false;

    // --- leaving slot: Devex-weighted most-infeasible basic ---------------
    std::size_t leave = kNone;
    double best_score = 0.0;
    bool below = false;
    for (std::size_t k = 0; k < nrows_; ++k) {
      const std::size_t b = basis_[k];
      double infeas = 0.0;
      bool under = false;
      if (xb_[k] < lower_[b] - kFeasTol) {
        infeas = lower_[b] - xb_[k];
        under = true;
      } else if (xb_[k] > upper_[b] + kFeasTol) {
        infeas = xb_[k] - upper_[b];
      } else {
        continue;
      }
      if (bland) {
        if (leave == kNone || b < basis_[leave]) {
          leave = k;
          below = under;
        }
        continue;
      }
      const double score = devex_rows_.score(k, infeas);
      if (leave == kNone || score > best_score) {
        best_score = score;
        leave = k;
        below = under;
      }
    }
    if (leave == kNone) return DualOutcome::kOptimal;  // primal feasible

    const std::size_t bleave = basis_[leave];

    // --- pivot row: rho = B^-T e_leave ------------------------------------
    std::fill(btran_scratch_.begin(), btran_scratch_.end(), 0.0);
    btran_scratch_[leave] = 1.0;
    btran(btran_scratch_, rho_);

    // --- dual ratio test --------------------------------------------------
    // The leaving variable exits at its violated bound. `below` (xb under
    // the lower bound) needs xb_leave to INCREASE, which the entering
    // direction dir_j delivers when alpha_rj * dir_j < 0; the dual step
    // theta_d = d_q / alpha_rq is then <= 0 and every other reduced cost
    // moves by -theta_d * alpha_rj, staying feasible as long as |theta_d| is
    // the minimum ratio. The mirrored case (above the upper bound) takes
    // theta_d >= 0. Among near-tie ratios prefer the largest |alpha| pivot
    // for numerical stability; Bland mode takes the smallest column index.
    std::size_t enter = kNone;
    double enter_alpha = 0.0;
    double enter_d = 0.0;
    double best_ratio = std::numeric_limits<double>::infinity();
    double best_mag = 0.0;
    // Columns whose direction would help but whose pivot-row coefficient
    // fell under the tolerance: declaring infeasibility while such a column
    // exists would turn a numerical corner into a hard (and for the exact
    // solver, soundness-critical) verdict — bail to the primal loop instead.
    bool skipped_tiny = false;
    for (std::size_t j = 0; j < ncols_; ++j) {
      if (state_[j] == VarStatus::kBasic) continue;
      if (lower_[j] == upper_[j]) continue;  // fixed
      double a = 0.0;
      if (j < nstruct_) {
        for (std::size_t t = cols_.start[j]; t < cols_.start[j + 1]; ++t) {
          a += cols_.value[t] * rho_[cols_.row[t]];
        }
      } else {
        a = rho_[j - nstruct_];
      }
      const bool at_lower = state_[j] == VarStatus::kAtLower;
      // Eligibility: entering from lower moves +1, from upper moves -1; the
      // move must push xb_leave toward its violated bound.
      const double push = at_lower ? -a : a;  // sign of xb_leave change
      if (below ? push <= 0.0 : push >= 0.0) continue;
      if (std::abs(a) < kPivotTol) {
        skipped_tiny = true;
        continue;
      }
      const double d = reduced_cost(j, /*phase1=*/false);
      // |theta_d| this column allows before its own reduced cost flips
      // sign. In the below case theta_d is <= 0 and the raw ratios d/a are
      // <= 0 (the binding one is the largest); negating both cases leaves
      // "smallest nonnegative normalized ratio = tightest".
      double ratio = d / a;
      if (below) ratio = -ratio;
      ratio = std::max(ratio, 0.0);
      const double mag = std::abs(a);
      bool better;
      if (enter == kNone) {
        better = true;
      } else if (bland) {
        better = j < enter;
        if (ratio > best_ratio + kOptTol) better = false;
        if (ratio < best_ratio - kOptTol) better = true;
      } else if (ratio < best_ratio - kRatioTieTol) {
        better = true;
      } else if (ratio <= best_ratio + kRatioTieTol) {
        better = mag > best_mag;
      } else {
        better = false;
      }
      if (better) {
        enter = j;
        enter_alpha = a;
        enter_d = d;
        best_ratio = ratio;
        best_mag = mag;
      }
    }
    if (enter == kNone) {
      // No column can absorb the infeasibility without breaking dual
      // feasibility: the dual is unbounded, the primal infeasible. Unless
      // eligible columns were dropped for tiny pivots only — then the
      // verdict is numerically uncertain and the primal loop must confirm.
      return skipped_tiny ? DualOutcome::kFallback : DualOutcome::kInfeasible;
    }

    // --- FTRAN the entering column ----------------------------------------
    if (enter < nstruct_) {
      for (std::size_t t = cols_.start[enter]; t < cols_.start[enter + 1];
           ++t) {
        work_rows_[cols_.row[t]] += cols_.value[t];
      }
    } else {
      work_rows_[enter - nstruct_] += 1.0;
    }
    ftran(alpha_);

    const double apivot = alpha_[leave];
    // The row (enter_alpha) and column (apivot) views of the pivot element
    // must agree; drift beyond roundoff means the eta file degraded.
    if (!std::isfinite(apivot) || std::abs(apivot) < kPivotTol ||
        std::abs(apivot - enter_alpha) >
            kPivotAgreementTol * std::max(1.0, std::abs(apivot))) {
      std::fill(alpha_.begin(), alpha_.end(), 0.0);
      return DualOutcome::kFallback;
    }

    const bool from_lower = state_[enter] == VarStatus::kAtLower;
    const double dir = from_lower ? 1.0 : -1.0;
    const double target = below ? lower_[bleave] : upper_[bleave];
    double step = (xb_[leave] - target) / (dir * apivot);
    step = std::max(step, 0.0);

    ++iterations_;
    if (step <= kFeasTol) {
      if (++dual_stall > 2 * (nrows_ + ncols_)) bland = true;
    } else {
      dual_stall = 0;
    }

    // Devex row weights from the pivot column (pre-pivot view). kStaleDevex
    // drops one whole update when it fires: the weights go stale, which can
    // only degrade pivot choice (more iterations), never correctness — the
    // fault the audit must NOT flag.
    if (!bland && !injector_.fire(FaultKind::kStaleDevex)) {
      const double w_pivot = devex_rows_.weight(leave);
      for (std::size_t k = 0; k < nrows_; ++k) {
        if (k == leave || alpha_[k] == 0.0) continue;
        devex_rows_.update_neighbor(k, alpha_[k] / apivot, w_pivot);
      }
      devex_rows_.update_pivot(leave, w_pivot, apivot);
    }

    // --- apply the primal step and exchange the basis ---------------------
    if (step != 0.0) {
      for (std::size_t k = 0; k < nrows_; ++k) {
        if (alpha_[k] != 0.0) xb_[k] -= dir * alpha_[k] * step;
      }
    }
    const double enter_from = bound_value(enter);
    state_[bleave] = below ? VarStatus::kAtLower : VarStatus::kAtUpper;
    basis_[leave] = enter;
    state_[enter] = VarStatus::kBasic;
    xb_[leave] = enter_from + dir * step;

    push_eta(leave);

    if (incremental_duals_ok_) {
      // Advance the duals in place of the next iteration's BTRAN: the new
      // basis's reduced costs are d'_j = d_j - theta_d * alpha_rj with
      // theta_d = d_enter / apivot, i.e. y' = y + theta_d * rho (rho_ still
      // holds this pivot's row B^-T e_leave).
      const double theta_d = enter_d / apivot;
      if (theta_d != 0.0) {
        for (std::size_t r = 0; r < nrows_; ++r) {
          y_[r] += theta_d * rho_[r];
        }
      }
      duals_ready = true;
    }

    if (needs_refactor()) {
      factorize();
      if (factor_repaired_) {
        // The repair swapped basis columns behind the dual loop's back; its
        // dual-feasibility invariant is gone. Let the primal loop finish.
        compute_basics();
        return DualOutcome::kFallback;
      }
      compute_basics();
      if (incremental_duals_ok_ && duals_ready) {
        // Periodic exact-BTRAN cross-check of the incremental duals: with
        // fresh factors, recompute y from scratch, measure the drift the
        // eta-era updates accumulated, and always adopt the exact values.
        // Drift beyond the audit slack (or a NaN) disables the incremental
        // path for the rest of this solve — correctness never depends on
        // the shortcut.
        for (std::size_t k = 0; k < nrows_; ++k) {
          cslot_[k] = cost2_[basis_[k]];
        }
        btran_scratch_ = cslot_;
        btran(btran_scratch_, rho_);  // rho_ is dead until the next pivot
        double drift = 0.0;
        double scale = 1.0;
        for (std::size_t r = 0; r < nrows_; ++r) {
          drift = std::max(drift, std::abs(rho_[r] - y_[r]));
          scale = std::max(scale, std::abs(rho_[r]));
        }
        y_ = rho_;
        if (!(drift <= kAuditSlack * scale)) {
          ++dual_drift_events_;
          incremental_duals_ok_ = false;
          obs::emit_instant("lp_dual_drift", "lp", nullptr, nullptr, "drift",
                            drift);
        }
      }
    }
  }
}

}  // namespace setsched::lp::internal
