// Sparse revised simplex with warm starting — substrate and primal loop.
//
// The problem is held in the standard computational form
//   min  c^T x   s.t.  A x + s = b,   l <= (x, s) <= u
// where one logical column s_r per row absorbs the row sense
// (<=: s in [0, inf),  >=: s in (-inf, 0],  =: s fixed at 0). Structural
// columns live in a CSC copy gathered from the Model on every solve;
// logical columns are implicit unit vectors.
// The basis matrix is kept as a sparse LU factorization (left-looking
// Gilbert-Peierls elimination, whose work follows the nonzeros, with
// threshold partial pivoting toward the sparsest rows of B) plus a
// product-form eta file that absorbs basis changes until needs_refactor()
// folds it into a fresh LU: after refactor_interval updates, or once 32 or
// more etas hold more nonzeros than twice the factors. One RevisedSolver
// serves a whole warm chain (lp::Workspace): its storage carries over, but
// every solve refactorizes its starting basis from the model data. Primal
// feasibility is reached by minimizing the sum of primal infeasibilities of
// the current basis ("composite" phase 1) — there are no artificial
// columns, so a warm-started basis that is only slightly infeasible after a
// re-parameterization (the T-search, column generation) is repaired in a
// handful of pivots instead of a full cold phase 1.
//
// The solver has a second engine, the bounded-variable dual simplex in
// dual.cpp: whenever the starting basis is primal-infeasible but
// dual-feasible — exactly the state of a warm basis after an rhs/bound
// mutation, or after flipping boxed columns that sit on the wrong bound —
// run() re-optimizes dually instead of running phase 1 at all.
// Primal pricing is candidate-list partial pricing over raw reduced costs.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "lp/revised_impl.h"
#include "lp/simplex.h"
#include "obs/phase.h"
#include "obs/trace.h"

namespace setsched::lp {

namespace internal {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = SIZE_MAX;
/// Threshold partial pivoting's u: an LU pivot may be as small as this
/// fraction of the largest candidate in its column, which leaves room to
/// choose a sparse row (Suhl and Suhl 1990 use 0.01-0.1). 0.1 halves the
/// L+U fill of the assignment-LP bases against largest-magnitude pivoting;
/// 0.01 cuts it only slightly more, at a growth bound ten times looser.
constexpr double kPivotThreshold = 0.1;
/// The eta file is folded into a fresh LU once its nonzeros pass this many
/// times those of the factors (L + U + diagonal): past that, applying the
/// etas costs each FTRAN and BTRAN more than the factors themselves.
constexpr std::size_t kEtaFillRatio = 2;
/// ... but not before this many etas: a refactorization also pays a fixed
/// cost per basis column that the nonzero counts do not see. On the exact
/// search's ~100-row cold root solves the fill bound alone refactorized
/// every ~13 pivots (3.3x the factorizations of a 64-eta interval), which
/// cost more than the etas it saved.
constexpr std::size_t kMinFillEtas = 32;
}  // namespace

void SparseColumns::gather(const Model& model) {
  const std::size_t nstruct = model.num_variables();
  const std::size_t nrows = model.num_constraints();
  // Count into start[j + 1], prefix-sum, then fill with start[j] as column
  // j's cursor; the fill leaves start shifted down by one column.
  start.assign(nstruct + 1, 0);
  for (std::size_t r = 0; r < nrows; ++r) {
    for (const Entry& e : model.row(r)) ++start[e.col + 1];
  }
  for (std::size_t j = 0; j < nstruct; ++j) start[j + 1] += start[j];
  row.resize(start[nstruct]);
  value.resize(start[nstruct]);
  for (std::size_t r = 0; r < nrows; ++r) {
    for (const Entry& e : model.row(r)) {
      const std::size_t at = start[e.col]++;
      row[at] = r;
      value[at] = e.value;
    }
  }
  for (std::size_t j = nstruct; j > 0; --j) start[j] = start[j - 1];
  start[0] = 0;
}

void RevisedSolver::build() {
  const Model& model = *model_;
  nrows_ = model.num_constraints();
  nstruct_ = model.num_variables();
  ncols_ = nstruct_ + nrows_;
  sign_ = model.objective_sense() == Objective::kMinimize ? 1.0 : -1.0;

  cols_.gather(model);

  lower_.resize(ncols_);
  upper_.resize(ncols_);
  cost2_.assign(ncols_, 0.0);
  rhs_.resize(nrows_);
  for (std::size_t j = 0; j < nstruct_; ++j) {
    lower_[j] = model.lower(j);
    upper_[j] = model.upper(j);
    cost2_[j] = sign_ * model.objective(j);
  }
  for (std::size_t r = 0; r < nrows_; ++r) {
    const std::size_t s = nstruct_ + r;
    switch (model.row_sense(r)) {
      case Sense::kLessEqual:
        lower_[s] = 0.0;
        upper_[s] = kInf;
        break;
      case Sense::kGreaterEqual:
        lower_[s] = -kInf;
        upper_[s] = 0.0;
        break;
      case Sense::kEqual:
        lower_[s] = 0.0;
        upper_[s] = 0.0;
        break;
    }
    rhs_[r] = model.rhs(r);
  }

  work_rows_.assign(nrows_, 0.0);
  z_.assign(nrows_, 0.0);
  alpha_.assign(nrows_, 0.0);
  cslot_.assign(nrows_, 0.0);
  y_.assign(nrows_, 0.0);
  rho_.assign(nrows_, 0.0);
  in_reach_.assign(nrows_, 0);
  shunned_.assign(ncols_, 0);
  any_shunned_ = false;
  candidates_.clear();

  max_iterations_ = 400 * (nrows_ + ncols_) + 10000;
}

void RevisedSolver::reset_to_logical_basis() {
  basis_.resize(nrows_);
  for (std::size_t j = 0; j < ncols_; ++j) {
    state_[j] = std::isfinite(lower_[j]) ? VarStatus::kAtLower
                                         : VarStatus::kAtUpper;
  }
  for (std::size_t r = 0; r < nrows_; ++r) {
    basis_[r] = nstruct_ + r;
    state_[nstruct_ + r] = VarStatus::kBasic;
  }
}

void RevisedSolver::init_basis(const Basis* warm) {
  state_.assign(ncols_, VarStatus::kAtLower);
  if (warm == nullptr || warm->empty() ||
      warm->structurals.size() > nstruct_ ||
      warm->logicals.size() != nrows_) {
    reset_to_logical_basis();
    return;
  }

  // Adopt the snapshot. Columns appended since it was taken (column
  // generation) default to nonbasic; statuses then get coerced onto a finite
  // bound below.
  for (std::size_t j = 0; j < warm->structurals.size(); ++j) {
    state_[j] = warm->structurals[j];
  }
  for (std::size_t r = 0; r < nrows_; ++r) {
    state_[nstruct_ + r] = warm->logicals[r];
  }

  std::vector<std::size_t>& basic = basic_;
  basic.clear();
  for (std::size_t j = 0; j < ncols_; ++j) {
    if (state_[j] == VarStatus::kBasic) basic.push_back(j);
  }
  // Size repair: demote surplus basics (latest columns first), pad a deficit
  // with nonbasic logicals. The factorization repairs singularity afterwards.
  while (basic.size() > nrows_) {
    state_[basic.back()] = VarStatus::kAtLower;
    basic.pop_back();
  }
  for (std::size_t r = 0; r < nrows_ && basic.size() < nrows_; ++r) {
    if (state_[nstruct_ + r] != VarStatus::kBasic) {
      state_[nstruct_ + r] = VarStatus::kBasic;
      basic.push_back(nstruct_ + r);
    }
  }
  if (basic.size() != nrows_) {  // degenerate snapshot beyond repair
    reset_to_logical_basis();
    return;
  }
  std::sort(basic.begin(), basic.end());
  basis_ = basic;

  // Nonbasic statuses must sit on a finite bound.
  for (std::size_t j = 0; j < ncols_; ++j) {
    if (state_[j] == VarStatus::kAtLower && !std::isfinite(lower_[j])) {
      state_[j] = VarStatus::kAtUpper;
    } else if (state_[j] == VarStatus::kAtUpper && !std::isfinite(upper_[j])) {
      state_[j] = VarStatus::kAtLower;
    }
  }
}

bool RevisedSolver::try_factorize() {
  lcols_.clear();
  ucols_.clear();
  udiag_.assign(nrows_, 0.0);
  rowof_.assign(nrows_, kNone);
  posof_.assign(nrows_, kNone);
  etas_.clear();
  eta_slot_.clear();
  eta_pivot_.clear();

  // Eliminate thin columns first (unit logicals, then the 2-nonzero
  // dominance columns, ...): a cheap static approximation of Markowitz
  // ordering that keeps the fill-in an order of magnitude down on the
  // scheduling LPs. A counting sort by column count (at most nrows_, since
  // model rows hold each column once) is stable: equal counts keep slot
  // order. The same pass counts the rows of B for the pivot rule below
  // (Markowitz 1957 counts rows and columns).
  const auto col_nnz = [&](std::size_t slot) -> std::size_t {
    const std::size_t col = basis_[slot];
    if (col >= nstruct_) return 1;
    return cols_.start[col + 1] - cols_.start[col];
  };
  row_count_.assign(nrows_, 0);
  nnz_start_.assign(nrows_ + 2, 0);
  for (std::size_t slot = 0; slot < nrows_; ++slot) {
    ++nnz_start_[col_nnz(slot) + 1];
    const std::size_t col = basis_[slot];
    if (col >= nstruct_) {
      ++row_count_[col - nstruct_];
      continue;
    }
    for (std::size_t t = cols_.start[col]; t < cols_.start[col + 1]; ++t) {
      ++row_count_[cols_.row[t]];
    }
  }
  for (std::size_t c = 1; c < nnz_start_.size(); ++c) {
    nnz_start_[c] += nnz_start_[c - 1];
  }
  colperm_.resize(nrows_);
  for (std::size_t slot = 0; slot < nrows_; ++slot) {
    colperm_[nnz_start_[col_nnz(slot)]++] = slot;
  }

  // Left-looking Gilbert-Peierls elimination: step k solves L u = b_k for
  // the basis column b_k eliminated at step k, touching only the rows its
  // nonzeros reach through the L columns of steps 0..k-1 (rows outside the
  // reach hold exact zeros). The earlier steps are applied in ascending
  // order and the unclaimed rows scanned in ascending order, so the factors
  // do not depend on the order in which the reach was discovered.
  const double lu_tol = kLuPivotFloor;
  std::vector<double>& w = work_rows_;  // invariant: all zero on entry/exit
  deficient_.clear();
  const auto reach = [&](std::size_t r) {
    if (in_reach_[r] == 0) {
      in_reach_[r] = 1;
      reach_.push_back(r);
    }
  };

  for (std::size_t k = 0; k < nrows_; ++k) {
    // Scatter the basis column eliminated at step k.
    reach_.clear();
    const std::size_t col = basis_[colperm_[k]];
    if (col < nstruct_) {
      for (std::size_t t = cols_.start[col]; t < cols_.start[col + 1]; ++t) {
        w[cols_.row[t]] += cols_.value[t];
        reach(cols_.row[t]);
      }
    } else {
      w[col - nstruct_] += 1.0;
      reach(col - nstruct_);
    }
    // Symbolic reach: a nonzero in a row claimed at step t spreads to the
    // rows of L column t.
    for (std::size_t i = 0; i < reach_.size(); ++i) {
      const std::size_t t = posof_[reach_[i]];
      if (t == kNone) continue;
      for (const auto& [r, v] : lcols_[t]) reach(r);
    }
    steps_.clear();
    free_rows_.clear();
    for (const std::size_t r : reach_) {
      if (posof_[r] != kNone) {
        steps_.push_back(posof_[r]);
      } else {
        free_rows_.push_back(r);
      }
    }
    std::sort(steps_.begin(), steps_.end());
    std::sort(free_rows_.begin(), free_rows_.end());
    // Numeric elimination against the reached pivots.
    for (const std::size_t t : steps_) {
      const double ut = w[rowof_[t]];
      if (ut == 0.0) continue;
      ucols_.entries.push_back({t, ut});
      for (const auto& [r, v] : lcols_[t]) w[r] -= v * ut;
    }
    // Threshold partial pivoting over the reached rows not yet claimed:
    // among the rows within kPivotThreshold of the largest magnitude (and
    // above the floor), the sparsest row of B wins, then the larger
    // magnitude, then the lower row. Taking the largest magnitude alone
    // lets the dense load rows, whose entries p_ij dwarf the unit entries,
    // claim pivots early and spread fill into every later column.
    double largest = 0.0;
    for (const std::size_t r : free_rows_) {
      largest = std::max(largest, std::abs(w[r]));
    }
    std::size_t pivot_row = kNone;
    if (largest > lu_tol) {
      double best = 0.0;
      for (const std::size_t r : free_rows_) {
        const double mag = std::abs(w[r]);
        if (mag <= lu_tol || mag < kPivotThreshold * largest) continue;
        if (pivot_row == kNone || row_count_[r] < row_count_[pivot_row] ||
            (row_count_[r] == row_count_[pivot_row] && mag > best)) {
          best = mag;
          pivot_row = r;
        }
      }
    }
    if (pivot_row == kNone) {
      deficient_.push_back(k);
      ucols_.discard_open();
    } else {
      udiag_[k] = w[pivot_row];
      rowof_[k] = pivot_row;
      posof_[pivot_row] = k;
      for (const std::size_t r : free_rows_) {
        if (r == pivot_row || w[r] == 0.0) continue;
        lcols_.entries.push_back({r, w[r] / udiag_[k]});
      }
    }
    lcols_.close();
    ucols_.close();
    for (const std::size_t r : reach_) {
      w[r] = 0.0;
      in_reach_[r] = 0;
    }
  }

  if (deficient_.empty()) {
    ++factorizations_;
    lu_nnz_ += lcols_.entries.size() + ucols_.entries.size();
    // Fault site (lp/fault.h): one U diagonal perturbed by
    // 1 +/- kFactorPerturbScale per firing — the shape of a marginally
    // unstable pivot.
    if (injector_.armed() && injector_.fire(FaultKind::kFactorPerturb)) {
      udiag_[injector_.pick(nrows_)] *=
          1.0 + injector_.pick_sign() * kFactorPerturbScale;
    }
    return true;
  }

  // Repair: swap each dependent basis column for the logical of a distinct
  // unclaimed row (those logicals are provably nonbasic only in the common
  // case; when one is not, fall back to the always-valid all-logical basis).
  factor_repaired_ = true;
  std::vector<std::size_t>& free_rows = free_rows_;
  free_rows.clear();
  for (std::size_t r = 0; r < nrows_; ++r) {
    if (posof_[r] == kNone && state_[nstruct_ + r] != VarStatus::kBasic) {
      free_rows.push_back(r);
    }
  }
  if (free_rows.size() < deficient_.size()) {
    reset_to_logical_basis();
    return false;
  }
  for (std::size_t i = 0; i < deficient_.size(); ++i) {
    const std::size_t slot = colperm_[deficient_[i]];
    const std::size_t old = basis_[slot];
    state_[old] = std::isfinite(lower_[old]) ? VarStatus::kAtLower
                                             : VarStatus::kAtUpper;
    basis_[slot] = nstruct_ + free_rows[i];
    state_[basis_[slot]] = VarStatus::kBasic;
  }
  return false;
}

void RevisedSolver::push_eta(std::size_t slot) {
  eta_slot_.push_back(slot);
  eta_pivot_.push_back(alpha_[slot]);
  for (std::size_t k = 0; k < nrows_; ++k) {
    if (k != slot && alpha_[k] != 0.0) etas_.entries.push_back({k, alpha_[k]});
    alpha_[k] = 0.0;
  }
  etas_.close();
  // Fault site (lp/fault.h): one entry of the fresh eta negated — the shape
  // of a corrupted update.
  const std::size_t first = etas_.start[etas_.size() - 1];
  const std::size_t count = etas_.entries.size() - first;
  if (injector_.armed() && count > 0 && injector_.fire(FaultKind::kEtaFlip)) {
    etas_.entries[first + injector_.pick(count)].second *= -1.0;
  }
}

bool RevisedSolver::needs_refactor() {
  const std::size_t factor_nnz =
      lcols_.entries.size() + ucols_.entries.size() + nrows_;
  const bool due =
      etas_.size() >= std::max<std::size_t>(1, opt_.refactor_interval) ||
      (etas_.size() >= kMinFillEtas &&
       etas_.entries.size() > kEtaFillRatio * factor_nnz);
  // kSkipRefactor suppresses one trigger: the eta file keeps growing and
  // roundoff accumulates — exactly the failure a forgotten refactorization
  // causes.
  return due && !injector_.fire(FaultKind::kSkipRefactor);
}

void RevisedSolver::factorize() {
  const obs::PhaseTimer timer(obs::Phase::kLpFactor);
  factor_repaired_ = false;
  for (std::size_t attempt = 0; attempt <= nrows_ + 1; ++attempt) {
    if (try_factorize()) return;
  }
  check(false, "revised simplex: basis repair did not converge");
}

void RevisedSolver::ftran(std::vector<double>& slots) {
  const obs::PhaseTimer timer(obs::Phase::kLpFtran);
  // Solve B z = work_rows_ into `slots` (position space); zeroes work_rows_.
  std::vector<double>& w = work_rows_;
  for (std::size_t k = 0; k < nrows_; ++k) {
    const double zk = w[rowof_[k]];
    z_[k] = zk;
    if (zk != 0.0) {
      for (const auto& [r, v] : lcols_[k]) w[r] -= v * zk;
    }
  }
  for (std::size_t k = 0; k < nrows_; ++k) w[rowof_[k]] = 0.0;
  for (std::size_t k = nrows_; k-- > 0;) {
    const double xk = z_[k] / udiag_[k];
    z_[k] = xk;
    if (xk != 0.0) {
      for (const auto& [q, v] : ucols_[k]) z_[q] -= v * xk;
    }
  }
  // The coefficient solved at elimination step k belongs to slot colperm_[k].
  for (std::size_t k = 0; k < nrows_; ++k) slots[colperm_[k]] = z_[k];
  for (std::size_t i = 0; i < etas_.size(); ++i) {
    const std::size_t slot = eta_slot_[i];
    const double xp = slots[slot] / eta_pivot_[i];
    if (xp != 0.0) {
      for (const auto& [q, v] : etas_[i]) slots[q] -= v * xp;
    }
    slots[slot] = xp;
  }
  // Fault site (lp/fault.h): a NaN dropped into one FTRAN result entry —
  // the shape of an uninitialized read or a 0/0 slipping through.
  if (injector_.armed() && injector_.fire(FaultKind::kFtranNan)) {
    slots[injector_.pick(slots.size())] =
        std::numeric_limits<double>::quiet_NaN();
  }
}

void RevisedSolver::btran(std::vector<double>& slots,
                          std::vector<double>& rows_out) {
  const obs::PhaseTimer timer(obs::Phase::kLpBtran);
  // Solve B^T y = `slots` (costs per slot); the result lands in `rows_out`.
  for (std::size_t i = etas_.size(); i-- > 0;) {
    const std::size_t slot = eta_slot_[i];
    double acc = slots[slot];
    for (const auto& [q, v] : etas_[i]) acc -= v * slots[q];
    slots[slot] = acc / eta_pivot_[i];
  }
  for (std::size_t k = 0; k < nrows_; ++k) z_[k] = slots[colperm_[k]];
  for (std::size_t k = 0; k < nrows_; ++k) {
    double tk = z_[k];
    for (const auto& [q, v] : ucols_[k]) tk -= v * z_[q];
    z_[k] = tk / udiag_[k];
  }
  for (std::size_t k = nrows_; k-- > 0;) {
    double sk = z_[k];
    for (const auto& [r, v] : lcols_[k]) sk -= v * z_[posof_[r]];
    z_[k] = sk;
  }
  for (std::size_t k = 0; k < nrows_; ++k) rows_out[rowof_[k]] = z_[k];
}

void RevisedSolver::compute_basics() {
  std::vector<double>& w = work_rows_;
  for (std::size_t r = 0; r < nrows_; ++r) w[r] = rhs_[r];
  // Nonbasic logicals always sit at 0, so only structural columns contribute.
  for (std::size_t j = 0; j < nstruct_; ++j) {
    if (state_[j] == VarStatus::kBasic) continue;
    const double v = bound_value(j);
    if (v == 0.0) continue;
    for (std::size_t t = cols_.start[j]; t < cols_.start[j + 1]; ++t) {
      w[cols_.row[t]] -= cols_.value[t] * v;
    }
  }
  xb_.assign(nrows_, 0.0);
  ftran(xb_);
}

bool RevisedSolver::phase_one_costs() {
  total_infeas_ = 0.0;
  bool any = false;
  for (std::size_t k = 0; k < nrows_; ++k) {
    const std::size_t b = basis_[k];
    const double v = xb_[k];
    if (v < lower_[b] - kFeasTol) {
      cslot_[k] = -1.0;
      total_infeas_ += lower_[b] - v;
      any = true;
    } else if (v > upper_[b] + kFeasTol) {
      cslot_[k] = 1.0;
      total_infeas_ += v - upper_[b];
      any = true;
    } else {
      cslot_[k] = 0.0;
    }
  }
  if (!any) {
    for (std::size_t k = 0; k < nrows_; ++k) cslot_[k] = cost2_[basis_[k]];
  }
  return any;
}

double RevisedSolver::reduced_cost(std::size_t j, bool phase1) const {
  double d = phase1 ? 0.0 : cost2_[j];
  if (j < nstruct_) {
    for (std::size_t t = cols_.start[j]; t < cols_.start[j + 1]; ++t) {
      d -= cols_.value[t] * y_[cols_.row[t]];
    }
  } else {
    d -= y_[j - nstruct_];
  }
  return d;
}

std::size_t RevisedSolver::full_scan(bool phase1, bool bland) {
  candidates_.clear();
  const std::size_t list_size =
      std::max<std::size_t>(16, ncols_ / 8);
  std::vector<std::pair<double, std::size_t>>& eligible = eligible_;
  eligible.clear();
  std::size_t best = kNone;
  double best_score = kOptTol;
  for (std::size_t j = 0; j < ncols_; ++j) {
    if (state_[j] == VarStatus::kBasic) continue;
    if (lower_[j] == upper_[j]) continue;  // fixed
    if (shunned_[j]) continue;
    const double d = reduced_cost(j, phase1);
    double score = 0.0;
    if (state_[j] == VarStatus::kAtLower && d < -kOptTol) {
      score = -d;
    } else if (state_[j] == VarStatus::kAtUpper && d > kOptTol) {
      score = d;
    } else {
      continue;
    }
    if (bland) return j;  // first eligible index
    eligible.push_back({score, j});
    if (score > best_score) {
      best_score = score;
      best = j;
    }
  }
  if (eligible.size() > list_size) {
    std::nth_element(eligible.begin(), eligible.begin() + list_size,
                     eligible.end(), std::greater<>());
    eligible.resize(list_size);
  }
  candidates_.reserve(eligible.size());
  for (const auto& [score, j] : eligible) candidates_.push_back(j);
  return best;
}

std::size_t RevisedSolver::price(bool phase1) {
  const obs::PhaseTimer timer(obs::Phase::kLpPricing);
  if (use_bland_) return full_scan(phase1, /*bland=*/true);
  // Minor pass over the candidate list with fresh reduced costs; fall back
  // to a full pricing scan (which also refreshes the list) when it runs dry.
  std::size_t best = kNone;
  double best_score = kOptTol;
  std::size_t keep = 0;
  for (const std::size_t j : candidates_) {
    if (state_[j] == VarStatus::kBasic || shunned_[j]) continue;
    candidates_[keep++] = j;
    const double d = reduced_cost(j, phase1);
    double score = 0.0;
    if (state_[j] == VarStatus::kAtLower && d < -kOptTol) {
      score = -d;
    } else if (state_[j] == VarStatus::kAtUpper && d > kOptTol) {
      score = d;
    } else {
      continue;
    }
    if (score > best_score) {
      best_score = score;
      best = j;
    }
  }
  candidates_.resize(keep);
  if (best != kNone) return best;
  return full_scan(phase1, /*bland=*/false);
}

Solution RevisedSolver::extract(SolveStatus status) {
  Solution sol;
  sol.status = status;
  sol.iterations = iterations_;
  sol.factorizations = factorizations_;
  sol.lu_nnz = lu_nnz_;
  sol.via_dual = via_dual_;
  sol.faults_injected = injector_.injected();

  // The basis snapshot is useful even for infeasible probes (the T-search
  // warm-starts the next probe from it), so fill it for every terminal
  // status except an iteration-limit bailout mid-flight.
  if (status == SolveStatus::kOptimal || status == SolveStatus::kInfeasible) {
    sol.basis.structurals.assign(state_.begin(), state_.begin() + nstruct_);
    sol.basis.logicals.assign(state_.begin() + nstruct_, state_.end());
  }
  if (status != SolveStatus::kOptimal) return sol;

  sol.x.resize(nstruct_);
  for (std::size_t j = 0; j < nstruct_; ++j) sol.x[j] = bound_value(j);
  for (std::size_t k = 0; k < nrows_; ++k) {
    if (basis_[k] >= nstruct_) continue;
    double v = xb_[k];
    // Snap roundoff onto the box.
    const std::size_t b = basis_[k];
    if (v < lower_[b] && v > lower_[b] - kFeasTol * 10) v = lower_[b];
    if (v > upper_[b] && v < upper_[b] + kFeasTol * 10) v = upper_[b];
    sol.x[b] = v;
  }
  sol.objective = 0.0;
  for (std::size_t j = 0; j < nstruct_; ++j) {
    sol.objective += model_->objective(j) * sol.x[j];
  }
  // Duals from the last phase-2 BTRAN, converted to the user's sense.
  sol.duals.resize(nrows_);
  for (std::size_t r = 0; r < nrows_; ++r) sol.duals[r] = sign_ * y_[r];
  return sol;
}

Solution RevisedSolver::run_primal() {
  while (true) {
    if (iterations_ >= max_iterations_) {
      return extract(SolveStatus::kIterationLimit);
    }

    const bool phase1 = phase_one_costs();
    btran_scratch_ = cslot_;
    btran(btran_scratch_, y_);

    const std::size_t enter = price(phase1);
    if (enter == kNone) {
      if (!phase1) return extract(SolveStatus::kOptimal);
      if (total_infeas_ > infeas_tol()) {
        return extract(SolveStatus::kInfeasible);
      }
      // Residual infeasibility is within the aggregate tolerance: snap the
      // stragglers onto their bounds and continue as phase 2. One bound at a
      // time (a basic var violates at most one, and the other may be
      // infinite, so std::clamp's lo <= hi precondition need not hold).
      for (std::size_t k = 0; k < nrows_; ++k) {
        const std::size_t b = basis_[k];
        if (xb_[k] < lower_[b]) xb_[k] = lower_[b];
        if (xb_[k] > upper_[b]) xb_[k] = upper_[b];
      }
      continue;
    }

    // FTRAN the entering column.
    if (enter < nstruct_) {
      for (std::size_t t = cols_.start[enter]; t < cols_.start[enter + 1];
           ++t) {
        work_rows_[cols_.row[t]] += cols_.value[t];
      }
    } else {
      work_rows_[enter - nstruct_] += 1.0;
    }
    ftran(alpha_);

    const bool from_lower = state_[enter] == VarStatus::kAtLower;
    const double dir = from_lower ? 1.0 : -1.0;

    // Bounded-variable ratio test, phase-aware. In phase 2 every basic is
    // feasible and blocks at the bound it moves toward. In phase 1 the
    // objective (total infeasibility) is piecewise linear in the step: each
    // basic variable reaching a bound is a kink where the slope changes, and
    // the classic long-step rule walks through kinks while the slope stays
    // improving — an infeasible basic turning feasible removes its
    // unit-rate gain, a feasible basic pushed past its bound adds a
    // unit-rate loss — taking one long step where the textbook rule would
    // take many degenerate ones.
    std::size_t leave_slot = kNone;
    double row_t = kInf;
    bool leave_to_upper = false;
    if (!phase1) {
      double leave_mag = 0.0;
      for (std::size_t k = 0; k < nrows_; ++k) {
        const double a = dir * alpha_[k];
        if (std::abs(a) < kPivotTol) continue;
        const std::size_t b = basis_[k];
        const double v = xb_[k];
        const double target = a > 0.0 ? lower_[b] : upper_[b];
        if (!std::isfinite(target)) continue;
        double t = (a > 0.0 ? v - target : target - v) / std::abs(a);
        t = std::max(t, 0.0);
        const double mag = std::abs(a);
        bool better;
        if (leave_slot == kNone) {
          better = t < row_t;
        } else if (t < row_t - kRatioTieTol) {
          better = true;
        } else if (t <= row_t + kRatioTieTol) {
          // Tie-break: Bland-friendly smallest column when stalling, biggest
          // pivot magnitude otherwise (numerical stability).
          better =
              use_bland_ ? basis_[k] < basis_[leave_slot] : mag > leave_mag;
        } else {
          better = false;
        }
        if (better) {
          leave_slot = k;
          row_t = t;
          leave_mag = mag;
          leave_to_upper = a > 0.0 ? false : true;
        }
      }
    } else {
      // Kinks of the phase-1 objective along the entering direction.
      std::vector<Kink>& kinks = kinks_;
      kinks.clear();
      for (std::size_t k = 0; k < nrows_; ++k) {
        const double a = dir * alpha_[k];
        if (std::abs(a) < kPivotTol) continue;
        const std::size_t b = basis_[k];
        const double v = xb_[k];
        const bool below = v < lower_[b] - kFeasTol;
        const bool above = v > upper_[b] + kFeasTol;
        const double mag = std::abs(a);
        if (a > 0.0) {  // basic decreases
          if (below) continue;  // moving further below: slope already paid
          if (above && std::isfinite(upper_[b])) {
            // Turns feasible at its upper bound, could then continue down to
            // its lower bound (second kink).
            kinks.push_back({(v - upper_[b]) / a, mag, k, true});
            if (std::isfinite(lower_[b])) {
              kinks.push_back({(v - lower_[b]) / a, mag, k, false});
            }
          } else if (!above && std::isfinite(lower_[b])) {
            kinks.push_back({std::max(0.0, (v - lower_[b]) / a), mag, k,
                             false});
          }
        } else {  // basic increases
          if (above) continue;
          if (below && std::isfinite(lower_[b])) {
            kinks.push_back({(lower_[b] - v) / mag, mag, k, false});
            if (std::isfinite(upper_[b])) {
              kinks.push_back({(upper_[b] - v) / mag, mag, k, true});
            }
          } else if (!below && std::isfinite(upper_[b])) {
            kinks.push_back({std::max(0.0, (upper_[b] - v) / mag), mag, k,
                             true});
          }
        }
      }
      std::sort(kinks.begin(), kinks.end(),
                [](const Kink& a, const Kink& b) { return a.t < b.t; });
      // The improvement rate starts at |d_enter| >= the sum of the
      // unit-rate gains from the infeasible basics this direction helps;
      // walk kinks until it is used up. The kink that exhausts the rate
      // yields the leaving variable.
      double slope = std::abs(reduced_cost(enter, /*phase1=*/true));
      for (const Kink& kink : kinks) {
        slope -= kink.slope_drop;
        leave_slot = kink.slot;
        row_t = kink.t;
        leave_to_upper = kink.to_upper;
        if (slope <= kOptTol) break;
      }
    }

    const double flip_t =
        std::isfinite(upper_[enter]) && std::isfinite(lower_[enter])
            ? upper_[enter] - lower_[enter]
            : kInf;
    if (leave_slot == kNone && !std::isfinite(flip_t)) {
      if (!phase1) return extract(SolveStatus::kUnbounded);
      // A phase-1 improving direction cannot truly be unbounded (the
      // objective is bounded below by 0); the blocking pivot fell under the
      // tolerance. Shun the column and re-price.
      shunned_[enter] = 1;
      any_shunned_ = true;
      continue;
    }

    const bool do_flip = leave_slot == kNone || flip_t < row_t;
    const double step = do_flip ? flip_t : row_t;

    ++iterations_;
    if (step <= kFeasTol) {
      ++stall_count_;
      if (stall_count_ > 2 * (nrows_ + ncols_)) use_bland_ = true;
    } else {
      stall_count_ = 0;
    }

    if (step != 0.0) {
      for (std::size_t k = 0; k < nrows_; ++k) {
        if (alpha_[k] != 0.0) xb_[k] -= dir * alpha_[k] * step;
      }
    }

    if (do_flip) {
      state_[enter] =
          from_lower ? VarStatus::kAtUpper : VarStatus::kAtLower;
      std::fill(alpha_.begin(), alpha_.end(), 0.0);
      continue;
    }

    // Basis change.
    const std::size_t leaving = basis_[leave_slot];
    state_[leaving] =
        leave_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
    basis_[leave_slot] = enter;
    state_[enter] = VarStatus::kBasic;
    xb_[leave_slot] =
        from_lower ? lower_[enter] + step : upper_[enter] - step;
    if (any_shunned_) {
      std::fill(shunned_.begin(), shunned_.end(), 0);
      any_shunned_ = false;
    }

    push_eta(leave_slot);

    if (needs_refactor()) {
      factorize();
      compute_basics();
    }
  }
}

Solution RevisedSolver::run(const Model& model,
                            const SimplexOptions& options) {
  model_ = &model;
  opt_ = options;
  injector_ = FaultInjector(options.fault_plan);
  iterations_ = 0;
  factorizations_ = 0;
  lu_nnz_ = 0;
  use_bland_ = false;
  stall_count_ = 0;
  factor_repaired_ = false;
  via_dual_ = false;
  incremental_duals_ok_ = true;
  dual_drift_events_ = 0;

  build();
  init_basis(opt_.warm_start);
  factorize();
  compute_basics();

  // Dual prologue: a warm basis that turned primal-infeasible under a
  // re-parameterization but kept dual feasibility (rhs/bound mutations never
  // disturb reduced costs) is re-optimized by the dual simplex instead of
  // being repaired by phase 1. Boxed columns on the wrong bound are flipped
  // to the other one first; only a violator that is not boxed sends the
  // solve to phase 1. kDual makes the dual loop the engine of choice for
  // every dual-feasible start (the min-makespan relaxations of src/exact
  // start dual-feasible from ANY basis: all costs are >= 0).
  const bool prefer_dual =
      opt_.algorithm == SimplexAlgorithm::kDual ||
      (opt_.warm_start != nullptr && !opt_.warm_start->empty());
  if (prefer_dual) {
    bool primal_infeasible = false;
    for (std::size_t k = 0; k < nrows_ && !primal_infeasible; ++k) {
      const std::size_t b = basis_[k];
      primal_infeasible = xb_[k] < lower_[b] - kFeasTol ||
                          xb_[k] > upper_[b] + kFeasTol;
    }
    const bool worth_it =
        primal_infeasible || opt_.algorithm == SimplexAlgorithm::kDual;
    if (worth_it && make_dual_feasible(kDualFeasFloor)) {
      const obs::PhaseTimer dual_timer(obs::Phase::kLpDual);
      switch (run_dual()) {
        case DualOutcome::kOptimal:
          via_dual_ = true;
          break;  // the primal loop below confirms and extracts
        case DualOutcome::kInfeasible:
          via_dual_ = true;
          return extract(SolveStatus::kInfeasible);
        case DualOutcome::kIterationLimit:
          return extract(SolveStatus::kIterationLimit);
        case DualOutcome::kFallback:
          break;  // numerics bailed out: the primal loop takes over
      }
    }
  }

  const obs::PhaseTimer primal_timer(obs::Phase::kLpPrimal);
  return run_primal();
}

}  // namespace internal

Workspace::Workspace() = default;
Workspace::~Workspace() = default;
Workspace::Workspace(Workspace&&) noexcept = default;
Workspace& Workspace::operator=(Workspace&&) noexcept = default;

Solution solve_revised(const Model& model, const SimplexOptions& options,
                       Workspace& workspace) {
  check(model.num_constraints() > 0, "LP needs at least one constraint");
  check(model.num_variables() > 0, "LP needs at least one variable");
  const obs::PhaseTimer timer(obs::Phase::kLpSolve);
  obs::TraceSpan span("lp_solve", "lp");
  if (!workspace.solver_) {
    workspace.solver_ = std::make_unique<internal::RevisedSolver>();
  }
  Solution sol = workspace.solver_->run(model, options);
  span.set_arg("iterations", static_cast<double>(sol.iterations));
  return sol;
}

}  // namespace setsched::lp
