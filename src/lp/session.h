#pragma once

#include "core/counters.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace setsched::lp {

/// One mutable LP solved again and again as a warm chain: the assignment-LP
/// T-search and branch-and-bound probes, and the column-generation masters.
/// The caller edits model() between solves (rhs, bounds, appended
/// columns); the session owns everything else the chain needs:
///
///   * the retained basis. Every solve warm-starts from it, and the end
///     basis replaces it iff it is non-empty, the audit did not contest the
///     solve, and the solve was optimal or dual-terminal (via_dual). A
///     dual-terminal infeasible basis is still dual-feasible and
///     re-optimizes the next solve in a few pivots; a primal phase-1 end
///     basis is a degenerate artifact that poisons the chain, so it is
///     dropped, and so is the basis of a guarded solve whose audit stays
///     contested after the whole ladder. options.guard runs every solve of
///     the chain under the lp::solve guard (or none of them).
///   * the effort counters: lp_solves, lp_iterations, lp_dual_solves, the
///     factorization counters and the guard counters of every solve.
///   * the solver's workspace (lp::Workspace): the storage of the
///     column-wise copy of the model, the LU, the eta file and the scratch,
///     reused by every solve of the chain. Each solve still re-gathers the
///     columns and refactorizes its starting basis from the model data.
class Session {
 public:
  explicit Session(Model model, const SimplexOptions& options = {});

  /// The model, to edit between solves. Column indices must stay stable:
  /// the retained basis refers to them.
  [[nodiscard]] Model& model() noexcept { return model_; }
  [[nodiscard]] const Model& model() const noexcept { return model_; }

  /// Solves the model warm from the retained basis, applies the retention
  /// rule and adds the solve to effort(). The returned reference stays
  /// valid until the next solve() or record_infeasible().
  const Solution& solve();

  /// Counts a solve that the caller settled as infeasible without the
  /// simplex (exact combinatorial knowledge, e.g. an impossible pin). It
  /// adds one lp_solves, keeps the basis,
  /// and sets last() to an unaudited kInfeasible solution.
  const Solution& record_infeasible();

  /// The most recent solve (or recorded infeasibility).
  [[nodiscard]] const Solution& last() const noexcept { return last_; }
  /// The basis the next solve starts from (empty before the first keeper).
  [[nodiscard]] const Basis& basis() const noexcept { return basis_; }
  /// Work of the chain so far.
  [[nodiscard]] const EffortCounters& effort() const noexcept {
    return effort_;
  }

 private:
  Model model_;
  SimplexOptions options_;
  Basis basis_;
  Solution last_;
  EffortCounters effort_;
  Workspace workspace_;
};

}  // namespace setsched::lp
