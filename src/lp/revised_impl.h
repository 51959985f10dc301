#pragma once

// Internal declaration of the sparse revised simplex, shared by its two
// translation units: revised.cpp (substrate — CSC gather, LU factorization,
// FTRAN/BTRAN, warm-start basis adoption — plus the composite primal
// phase 1/2 loop) and dual.cpp (the bounded-variable dual simplex that
// re-optimizes warm bases which are primal-infeasible but dual-feasible).
// Not part of the public API; include lp/simplex.h instead.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "lp/fault.h"
#include "lp/pricing.h"
#include "lp/simplex.h"
#include "lp/tolerances.h"

namespace setsched::lp::internal {

/// Column-wise sparse (CSC) copy of the structural part of [A | I],
/// gathered once per solve into storage a warm chain reuses.
struct SparseColumns {
  std::vector<std::size_t> start;  ///< nstruct + 1 offsets
  std::vector<std::size_t> row;
  std::vector<double> value;

  /// Re-gathers from `model`, reusing the storage.
  void gather(const Model& model);
};

/// Sparse columns stored back to back, appended one at a time: column k is
/// entries[start[k], start[k + 1]). clear() keeps the capacity, so
/// refactorizations and eta pushes reuse the storage of the solves before.
struct PackedColumns {
  std::vector<std::size_t> start{0};
  std::vector<std::pair<std::size_t, double>> entries;

  void clear() {
    start.assign(1, 0);
    entries.clear();
  }
  /// Ends the column being appended.
  void close() { start.push_back(entries.size()); }
  /// Drops the entries appended since the last close().
  void discard_open() { entries.resize(start.back()); }
  [[nodiscard]] std::size_t size() const { return start.size() - 1; }
  [[nodiscard]] std::span<const std::pair<std::size_t, double>> operator[](
      std::size_t k) const {
    return {entries.data() + start[k], start[k + 1] - start[k]};
  }
};

/// The solver and every buffer it needs. One instance serves a whole warm
/// chain (lp::Workspace): run() resets the per-solve state, and the buffers
/// keep their capacity from one solve to the next.
class RevisedSolver {
 public:
  Solution run(const Model& model, const SimplexOptions& options);

 private:
  // --- setup (revised.cpp) -------------------------------------------------
  /// Gathers the CSC copy, reads bounds, costs and rhs from the model and
  /// sizes the scratch.
  void build();
  void init_basis(const Basis* warm);
  void reset_to_logical_basis();

  // --- factorization (revised.cpp) -----------------------------------------
  void factorize();             ///< LU of the current basis, with repair
  bool try_factorize();         ///< one elimination pass; false => repaired
  /// True when the eta file should be folded into a fresh LU: it reached
  /// refactor_interval updates, or (past a minimum length) its nonzeros
  /// outgrew the factors'. Each call with a true condition is one trigger,
  /// which kSkipRefactor can suppress.
  [[nodiscard]] bool needs_refactor();
  /// Appends the eta of a pivot on `slot` from alpha_ (the FTRAN image of
  /// the entering column) and zeroes alpha_.
  void push_eta(std::size_t slot);
  void compute_basics();        ///< xb = B^-1 (b - N x_N)
  void ftran(std::vector<double>& slots);  ///< rows in work_rows_ -> slots
  /// Solves B^T y = `slots` (costs per slot) into `rows_out` (row space).
  void btran(std::vector<double>& slots, std::vector<double>& rows_out);

  // --- primal iteration (revised.cpp) --------------------------------------
  /// The composite primal loop (phase 1 = minimize total infeasibility,
  /// phase 2 = the model objective). Entered after an optional dual
  /// prologue; returns the final Solution.
  Solution run_primal();
  bool phase_one_costs();       ///< fills cslot_; true iff any infeasibility
  std::size_t price(bool phase1);
  std::size_t full_scan(bool phase1, bool bland);
  [[nodiscard]] double reduced_cost(std::size_t j, bool phase1) const;
  [[nodiscard]] double bound_value(std::size_t j) const {
    return state_[j] == VarStatus::kAtUpper ? upper_[j] : lower_[j];
  }

  // --- dual simplex (dual.cpp) ---------------------------------------------
  enum class DualOutcome {
    kOptimal,         ///< primal feasibility restored; duals stayed feasible
    kInfeasible,      ///< dual unbounded: the primal is infeasible
    kFallback,        ///< numerics forced a bail-out; run the primal loop
    kIterationLimit,
  };
  /// Makes the basis dual-feasible within `tol` if bound flips can: every
  /// nonbasic column whose phase-2 reduced cost has the wrong sign for its
  /// bound status must be boxed, and then moves to its other bound (fixed
  /// columns are exempt). Returns false, changing nothing, when a violator
  /// is not boxed. Refreshes y_, and xb_ after a flip.
  [[nodiscard]] bool make_dual_feasible(double tol);
  /// The bounded-variable dual simplex with Devex row pricing. Assumes a
  /// factorized basis with xb_ computed and the duals of the current basis
  /// already in y_ (run() establishes both via make_dual_feasible());
  /// maintains dual feasibility while driving out primal infeasibilities.
  DualOutcome run_dual();

  [[nodiscard]] Solution extract(SolveStatus status);

  const Model* model_ = nullptr;
  SimplexOptions opt_;

  std::size_t nrows_ = 0;
  std::size_t nstruct_ = 0;
  std::size_t ncols_ = 0;  ///< nstruct_ + nrows_ (structural | logical)

  SparseColumns cols_;
  std::vector<double> lower_, upper_;  ///< per column, internal form
  std::vector<double> cost2_;          ///< phase-2 costs (internal minimize)
  std::vector<double> rhs_;
  double sign_ = 1.0;  ///< +1 minimize, -1 maximize

  std::vector<VarStatus> state_;     ///< per column
  std::vector<std::size_t> basis_;   ///< column basic in each slot
  std::vector<double> xb_;           ///< value of the basic column per slot

  // LU factors of P B Q = L U: columns eliminated in sparsity order Q
  // (thin columns first keeps the fill an order of magnitude down on the
  // scheduling LPs, whose bases mix unit logicals, 2-nonzero dominance
  // columns, and a few dense load columns), rows chosen by threshold
  // partial pivoting P toward the sparsest rows of B (row_count_).
  // Everything below is indexed by elimination step.
  PackedColumns lcols_;  ///< per step: (row, multiplier) below the pivot
  PackedColumns ucols_;  ///< per step: (earlier step, U entry)
  std::vector<double> udiag_;
  std::vector<std::size_t> rowof_;    ///< elimination step -> pivot row
  std::vector<std::size_t> posof_;    ///< row -> elimination step
  std::vector<std::size_t> colperm_;  ///< elimination step -> basis slot
  std::vector<double> z_;             ///< scratch, elimination space
  // Elimination scratch: the rows a column's nonzeros reach (reach_), split
  // into the earlier steps to apply (steps_) and the unclaimed rows
  // (free_rows_); in_reach_ marks reach_ and is all zero between columns.
  std::vector<std::size_t> reach_, steps_, free_rows_, deficient_;
  std::vector<char> in_reach_;
  std::vector<std::size_t> row_count_;  ///< nonzeros of B per row
  std::vector<std::size_t> nnz_start_;  ///< counting-sort buckets

  // Product-form eta file: update i replaced the basis column at
  // eta_slot_[i]; its FTRAN image was eta_pivot_[i] at that slot and
  // etas_[i] elsewhere.
  PackedColumns etas_;
  std::vector<std::size_t> eta_slot_;
  std::vector<double> eta_pivot_;

  /// One kink of the piecewise-linear phase-1 objective along the entering
  /// direction (see the primal ratio test).
  struct Kink {
    double t;
    double slope_drop;  ///< how much the improvement rate loses here
    std::size_t slot;
    bool to_upper;
  };

  // Scratch (members so the per-iteration hot loop never allocates).
  std::vector<double> work_rows_;  ///< dense over rows, kept zeroed
  std::vector<double> alpha_;      ///< FTRAN image of the entering column
  std::vector<double> cslot_;      ///< basic costs per slot
  std::vector<double> btran_scratch_;
  std::vector<double> y_;          ///< duals over rows (last BTRAN)
  std::vector<double> rho_;        ///< B^-T e_r (pivot-row BTRAN image)
  std::vector<std::size_t> candidates_;
  std::vector<std::pair<double, std::size_t>> eligible_;  ///< full_scan
  std::vector<std::size_t> basic_;                        ///< init_basis
  std::vector<std::size_t> flips_;  ///< make_dual_feasible
  std::vector<Kink> kinks_;
  std::vector<char> shunned_;  ///< columns with numerically unusable pivots
  bool any_shunned_ = false;

  // Devex reference framework over slots (rows) for the dual simplex's
  // leaving-row selection.
  DevexWeights devex_rows_;

  double total_infeas_ = 0.0;
  std::size_t iterations_ = 0;
  std::size_t max_iterations_ = 0;
  std::size_t factorizations_ = 0;  ///< completed LUs this solve
  std::size_t lu_nnz_ = 0;          ///< off-diagonal L+U entries, summed
  bool use_bland_ = false;
  std::size_t stall_count_ = 0;
  /// True when the last factorize() had to repair a singular basis (the
  /// basis changed outside a pivot, invalidating dual-loop invariants).
  bool factor_repaired_ = false;
  /// True once the dual simplex performed this solve (Solution::via_dual).
  bool via_dual_ = false;

  /// Deterministic fault injection (lp/fault.h); disarmed unless the options
  /// carry a plan. Sites: eta pushes (kEtaFlip), try_factorize
  /// (kFactorPerturb), ftran results (kFtranNan), the refactor trigger
  /// (kSkipRefactor, in needs_refactor), and the dual's Devex weight updates
  /// (kStaleDevex).
  FaultInjector injector_;

  /// Incremental-duals state (dual.cpp): when true, y_ currently holds the
  /// exact duals of basis_ and the dual loop may advance it per pivot via
  /// y += theta_d * rho instead of a fresh BTRAN. Dropped to exact-recompute
  /// mode for the rest of the solve when the periodic refactorization
  /// cross-check detects drift.
  bool incremental_duals_ok_ = true;
  std::size_t dual_drift_events_ = 0;

  [[nodiscard]] double infeas_tol() const {
    return kFeasTol * std::max<double>(1.0, static_cast<double>(nrows_));
  }
};

}  // namespace setsched::lp::internal
