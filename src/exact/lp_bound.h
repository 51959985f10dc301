#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "core/counters.h"
#include "core/instance.h"
#include "lp/session.h"
#include "lp/simplex.h"
#include "unrelated/assignment_lp.h"

namespace setsched::exact {

/// Assignment-LP relaxation bounds for the branch-and-bound: ILP-UM's
/// relaxation (unrelated/assignment_lp.h) with T moved into a column —
/// minimize T_var subject to load_i - T_var <= 0 per machine, the filters
/// (5) at the probe's T as variable bounds. ONE model, built at the initial
/// cutoff; jobs on the DFS path are pinned to their machines, and every
/// probe warm-starts from the previous node's basis — a pure dual
/// re-optimization, as every cost is >= 0. One solve per node yields:
///   * the node lower bound (the minimum fractional makespan of any
///     completion respecting the pins and fixes) — prune when it exceeds
///     the cutoff;
///   * the certified root lower bound (the same solve with no pins);
///   * reduced costs for variable fixing: pairs whose reduced cost exceeds
///     the incumbent gap can never appear in an improving completion and are
///     fixed to zero for the whole subtree (fix_dominated / unfix).
class LpBounder {
 public:
  /// Builds the relaxation at `T_build` (the loosest value that will ever be
  /// probed; the initial cutoff). A non-positive T_build disables the
  /// bounder (available() == false) — probes then never prune. `simplex`
  /// selects the engine; kAuto is upgraded to kDual.
  LpBounder(const Instance& instance, double T_build,
            const lp::SimplexOptions& simplex);

  [[nodiscard]] bool available() const noexcept { return T_build_ > 0.0; }

  /// Pins job j to machine i for later probes: x_ij is fixed to 1 and x_i'j
  /// to 0 for every other machine. Pinning a pair filtered at T_build makes
  /// every later probe infeasible (the pair cannot meet any T <= T_build).
  void pin(JobId j, MachineId i);
  /// Removes the pin on job j (no-op when j is not pinned).
  void unpin(JobId j);

  /// True iff a fractional completion respecting the pins and fixes with
  /// makespan <= T exists (or the bounder is unavailable). False certifies
  /// that no completion of the pinned partial schedule has makespan <= T, so
  /// the subtree can be pruned against a cutoff of T.
  ///
  /// Safe pruning: every probe runs under the lp::solve guard (audit
  /// cadence 1), and an infeasibility / bound verdict the audit contests is
  /// DEMOTED to "no bound" — the probe answers true and the subtree is
  /// searched instead of pruned. Losing a prune costs nodes; trusting a
  /// corrupted bound costs correctness.
  [[nodiscard]] bool feasible(double T);

  /// Certified lower bound on OPT from the unpinned relaxation: the LP
  /// minimum fractional makespan, never below `lo` (itself a valid bound).
  /// Call before any pins are set. `hi` caps the eligibility filters (any
  /// schedule of interest has makespan <= hi). The third argument is
  /// ignored.
  [[nodiscard]] double root_lower_bound(double lo, double hi,
                                        double /*unused*/ = 0.0);

  /// Reduced-cost fixing against the most recent probe (feasible() /
  /// root_lower_bound()): every free pair (j, i) whose reduced cost
  /// certifies that any completion placing j on i has makespan >= cutoff is
  /// fixed to x_ij = 0 and appended to *undo. Returns how many were fixed.
  /// Sound because the bounded-simplex sensitivity bound
  /// obj(x_ij = 1) >= value + d_ij holds for nonbasic-at-lower columns.
  /// Callers undo with unfix(undo, old_size) when leaving the subtree.
  std::size_t fix_dominated(double cutoff,
                            std::vector<std::pair<JobId, MachineId>>* undo);

  /// Clears the fixes undo[from..] and shrinks *undo back to `from`.
  void unfix(std::vector<std::pair<JobId, MachineId>>* undo,
             std::size_t from);

  /// Snapshots the most recent solve's sensitivity bounds `value + d_ij` as
  /// the ROOT relaxation for refix_root(). Call right after
  /// root_lower_bound(), before any pins are set. Stores nothing when that
  /// solve was not optimal or its audit was contested.
  void save_root_snapshot();

  /// Incremental root fixing: re-applies the root snapshot at a tighter
  /// cutoff (each incumbent improvement). Fixes are permanent — no undo
  /// entry, they survive every subtree unwind — and each pair is root-fixed
  /// at most once, so this stays O(n·m) with no LP solve. Returns pairs
  /// newly fixed (0 without a snapshot).
  std::size_t refix_root(double cutoff);

  /// True iff branching job j onto machine i is currently fixed away.
  [[nodiscard]] bool pair_fixed(JobId j, MachineId i) const {
    return fixed_zero_(i, j) != 0;
  }

  /// Probe effort: the chain's lp_* and guard counters (lp_solves counts
  /// every probe, including the ones impossible pins settle without the
  /// simplex), lp_bounds_used (the probe count: root solve + node probes),
  /// and fixed_vars (total pairs ever fixed, cumulative before undos).
  [[nodiscard]] EffortCounters effort() const noexcept {
    EffortCounters out = session_.effort();
    out.lp_bounds_used = out.lp_solves;
    out.fixed_vars = fixed_;
    return out;
  }
  /// Simplex iterations across all probes.
  [[nodiscard]] std::size_t iterations() const noexcept {
    return session_.effort().lp_iterations;
  }

 private:
  /// Minimum fractional makespan of the completions respecting the pins and
  /// fixes, with the eligibility filters applied at T_filter; std::nullopt
  /// iff no completion exists at all (impossible pins).
  std::optional<double> min_makespan(double T_filter);
  /// Fills reduced_ with the reduced costs of the last solve.
  void compute_reduced_costs();
  /// True when the most recent probe's answer must not be acted on: the
  /// audit contested it even after the full recovery ladder.
  [[nodiscard]] bool last_contested() const {
    return session_.last().audit_contested();
  }

  const Instance* instance_;
  double T_build_;
  /// The model and its warm chain across probes (empty when unavailable).
  lp::Session session_;
  AssignmentLpLayout layout_;
  std::vector<MachineId> pinned_;  ///< per job; kUnassigned = free
  /// Pins onto pairs absent from the model (filtered at T_build): every
  /// probe is infeasible while > 0.
  std::size_t impossible_pins_ = 0;
  /// m x n fix COUNTS (0 = free): a pair can be held at zero by a
  /// subtree-scoped fix_dominated() fix and a permanent refix_root() fix at
  /// once; unfixing the subtree scope must not free a root-fixed pair.
  Matrix<char> fixed_zero_;
  /// m x n pairs already fixed by refix_root() (each at most once, ever).
  Matrix<char> root_fixed_;
  /// Root snapshot: per-column sensitivity bound `root value + reduced
  /// cost` (-inf for basic/at-upper columns, which carry no bound). Empty
  /// until save_root_snapshot().
  std::vector<double> root_bound_;
  /// Reduced-cost scratch (hot: filled on every LP-probed node).
  std::vector<double> reduced_;
  std::size_t fixed_ = 0;
};

}  // namespace setsched::exact
