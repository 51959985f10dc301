#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "lp/simplex.h"
#include "unrelated/assignment_lp.h"

namespace setsched::exact {

/// Assignment-LP relaxation bounds for the branch-and-bound: ONE parametric
/// model (unrelated/assignment_lp.h) in *makespan-objective* mode, built at
/// the initial cutoff and re-parameterized down the search tree. Jobs on the
/// DFS path are pinned to their machines; every probe warm-starts the
/// simplex from the previous node's basis, and because the min-T objective
/// is all-nonnegative, every probe is a pure dual re-optimization (the
/// bounder forces SimplexAlgorithm::kDual unless the caller overrides the
/// engine). One solve per node yields three things:
///   * the node lower bound (the minimum fractional makespan of any
///     completion respecting the pins) — prune when it meets the cutoff;
///   * the certified root lower bound (the same solve with no pins), which
///     replaces PR 4's geometric feasibility bisection with a single LP;
///   * reduced costs for variable fixing: pairs whose reduced cost exceeds
///     the incumbent gap can never appear in an improving completion and are
///     fixed to zero for the whole subtree (fix_dominated / unfix).
class LpBounder {
 public:
  /// Builds the relaxation at `T_build` (the loosest value that will ever be
  /// probed; the initial cutoff). A non-positive T_build disables the
  /// bounder (available() == false) — probes then never prune. `simplex`
  /// selects the engine; kAuto is upgraded to kDual (the natural engine for
  /// the all-nonnegative-cost min-T LP).
  LpBounder(const Instance& instance, double T_build,
            const lp::SimplexOptions& simplex);

  [[nodiscard]] bool available() const noexcept { return lp_.has_value(); }

  void pin(JobId j, MachineId i) {
    if (lp_) lp_->pin_job(j, i);
  }
  void unpin(JobId j) {
    if (lp_) lp_->unpin_job(j);
  }

  /// True iff a fractional completion respecting the pins and fixes with
  /// makespan <= T exists (or the bounder is unavailable). False certifies
  /// that no completion of the pinned partial schedule has makespan <= T, so
  /// the subtree can be pruned against a cutoff of T.
  ///
  /// Safe pruning: every probe runs under the lp::solve guard
  /// (AssignmentLpOptions::audit_interval = 1), and an infeasibility /
  /// bound verdict the audit contests is DEMOTED to "no bound" — the probe
  /// answers true and the subtree is searched instead of pruned. Losing a
  /// prune costs nodes; trusting a corrupted bound costs correctness.
  [[nodiscard]] bool feasible(double T);

  /// Certified lower bound on OPT from the unpinned relaxation: the LP
  /// minimum fractional makespan, never below `lo` (itself a valid bound).
  /// Call before any pins are set. `hi` caps the eligibility filters (any
  /// schedule of interest has makespan <= hi). The LP optimum is exact, so
  /// the third argument (a bisection precision once) is ignored; it stays
  /// only so existing three-argument callers compile.
  [[nodiscard]] double root_lower_bound(double lo, double hi,
                                        double /*unused*/ = 0.0);

  /// Reduced-cost fixing against the most recent probe (feasible() /
  /// root_lower_bound()): fixes every free pair that provably cannot appear
  /// in a completion of makespan < cutoff, appends the pairs to *undo, and
  /// returns how many were fixed. Callers undo with unfix(undo, old_size)
  /// when leaving the subtree.
  std::size_t fix_dominated(double cutoff,
                            std::vector<std::pair<JobId, MachineId>>* undo);

  /// Reverts the fixes in undo[from..] (see fix_dominated).
  void unfix(std::vector<std::pair<JobId, MachineId>>* undo,
             std::size_t from) {
    if (lp_) lp_->unfix(undo, from);
  }

  /// Snapshots the most recent (root, unpinned) solve for refix_root().
  /// Call right after root_lower_bound(), before any pins are set.
  void save_root_snapshot() {
    if (lp_) lp_->save_root_snapshot();
  }

  /// Incremental root fixing: whenever the incumbent improves mid-search,
  /// re-applies the root snapshot's sensitivity bounds at the new cutoff.
  /// Fixes are permanent (no undo entry; they survive every subtree-scope
  /// unwind) and each pair is root-fixed at most once, so calling this on
  /// every improvement stays O(n·m) with no LP solve. Returns pairs fixed.
  std::size_t refix_root(double cutoff);

  /// True iff branching job j onto machine i is currently fixed away.
  [[nodiscard]] bool pair_fixed(JobId j, MachineId i) const {
    return lp_ && lp_->pair_fixed(j, i);
  }

  /// Probe effort: the chain's lp_* and guard counters, lp_bounds_used (the
  /// probe count: root solve + node probes), and fixed_vars (total pairs
  /// ever fixed by fix_dominated, cumulative before undos).
  [[nodiscard]] EffortCounters effort() const noexcept {
    EffortCounters out;
    if (lp_) out = lp_->effort();
    out.lp_bounds_used = out.lp_solves;
    out.fixed_vars = fixed_;
    return out;
  }
  /// Simplex iterations across all probes.
  [[nodiscard]] std::size_t iterations() const noexcept {
    return lp_ ? lp_->effort().lp_iterations : 0;
  }

 private:
  /// True when the most recent probe's answer must not be acted on: the
  /// audit contested it even after the full recovery ladder.
  [[nodiscard]] bool last_contested() const {
    return lp_->session().last().audit_contested();
  }

  std::optional<ParametricAssignmentLp> lp_;
  std::size_t fixed_ = 0;
};

}  // namespace setsched::exact
