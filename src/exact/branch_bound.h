#pragma once

#include <cstdint>
#include <optional>

#include "core/instance.h"
#include "core/result.h"
#include "lp/simplex.h"

namespace setsched {

/// Search mode of solve_exact().
enum class ExactMode : std::uint8_t {
  /// Exhaustive LP-bounded depth-first branch-and-bound. Proves optimality
  /// unless a budget runs out; the result then carries the best incumbent
  /// and a certified optimality gap against the root lower bound.
  kProve,
  /// Time-boxed best-first beam dive: yields a high-quality incumbent with a
  /// certified gap for mid-size instances (n ~ 30-60) where proving is
  /// hopeless. proven_optimal is reported only when the incumbent meets the
  /// certified lower bound, or when the beam never dropped a reachable
  /// state (the dive degenerated to an exhaustive search).
  kDive,
  /// Dive-then-prove chain: a time-boxed kDive pass (dive_time_limit_s)
  /// produces an incumbent schedule. When it does not prove, the same
  /// search adopts the best of that schedule, its local-search polish and
  /// greedy after local search as its incumbent, re-solves its root LP warm
  /// at the tightened cutoff and runs the kProve depth-first search, so
  /// reduced-cost fixing and the load cuts bite from node 1 instead of
  /// waiting for the B&B to rediscover a good schedule. One search, one
  /// root model and one set of counters; a budget abort never returns a
  /// schedule worse than the dive's or the `local-search` solver's.
  kDiveThenProve,
};

/// Which LP relaxation bounds the prove search's nodes (use_lp_bounds must
/// be on for any of them to act).
enum class BoundMode : std::uint8_t {
  /// Assignment-LP probes only — the default.
  kAssignment,
  /// Branch-and-price: configuration-LP probes (exact/config_bound.h) run at
  /// every LP-bounded node AFTER the assignment probe (so the combined bound
  /// dominates the assignment bound by construction), and the root bound is
  /// the max of both relaxations' certificates.
  kConfig,
  /// kConfig that demotes itself back to kAssignment when the config LP is
  /// not earning its keep: a root bound no better than the assignment LP's,
  /// or repeated pricing stalls at nodes. Each demotion counts into
  /// cg_fallbacks.
  kAuto,
};

struct ExactOptions {
  ExactMode mode = ExactMode::kProve;
  /// Node budget. Hitting it with unexplored branches left clears
  /// proven_optimal; a tree fully explored at exactly the budget still
  /// counts as proven.
  std::size_t max_nodes = 200'000'000;  // lint: allow-knob (tests cap it)
  /// Wall-clock budget in seconds, counted from the start of the
  /// solve_exact() call: the call's one deadline (checked coarsely, between
  /// nodes: one LP probe can run past it). Reaching it is a budget abort:
  /// the incumbent is returned with proven_optimal false.
  double time_limit_s = 60.0;
  /// Optional initial incumbent SCHEDULE (must be complete and feasible for
  /// the instance), the one way to seed the search. Every mode adopts it as
  /// its starting incumbent when it beats the trivial best_machine_schedule
  /// one, so (a) the cutoff — and with it root reduced-cost fixing — starts
  /// at the schedule's makespan, and (b) a budget abort can never return a
  /// schedule worse than this one.
  std::optional<Schedule> initial_schedule;
  /// Prune nodes whose assignment-LP relaxation (path jobs pinned to their
  /// machines) cannot beat the current cutoff, and certify the root lower
  /// bound used for gap reporting. One parametric min-makespan model is
  /// built once and re-parameterized down the tree; every probe is a dual
  /// re-optimization warm-started from the previous node's basis (see
  /// exact/lp_bound.h). The probes' duals also drive reduced-cost variable
  /// fixing at the root and at every LP-probed node: job-machine pairs whose
  /// reduced cost exceeds the incumbent gap are excluded, shrinking the
  /// branching factor of the whole subtree.
  bool use_lp_bounds = true;  // lint: allow-knob (tests turn it off)
  /// LP-probe nodes at depth <= lp_bound_depth only — the top of the tree,
  /// where one pruned node kills an exponential subtree and the probe cost
  /// amortizes.
  std::size_t lp_bound_depth = 12;  // lint: allow-knob (tests deepen it)
  /// Dominance memo: states kept per depth (0 disables the memo).
  std::size_t memo_limit = 256;  // lint: allow-knob (tests turn it off)
  /// kDive: beam width per level.
  std::size_t beam_width = 256;  // lint: allow-knob (tests narrow it)
  /// kDiveThenProve: wall-clock budget of the dive's beam, counted from the
  /// end of its root step (further capped at half of time_limit_s); the
  /// prove phase gets whatever remains of time_limit_s.
  double dive_time_limit_s = 0.5;  // lint: allow-knob (tests box it)
  /// Simplex options of every LP-bound solve, assignment and config alike
  /// (the assignment bounder upgrades kAuto to kDual, the natural engine for
  /// the min-makespan relaxation). A `simplex.fault_plan` is threaded into
  /// every bound solve; the bounders' residual audits and safe-pruning
  /// demotions are active regardless, so injected runs stay sound — they
  /// just burn recoveries and prune less.
  lp::SimplexOptions simplex;
  /// Node-bound relaxation selector (branch-and-price lives behind kConfig /
  /// kAuto; see BoundMode). Ignored unless use_lp_bounds.
  BoundMode bound = BoundMode::kAssignment;
  /// Config-LP probes run at depth <= cg_bound_depth only (they price a
  /// knapsack per machine per round, so they are costlier than assignment
  /// probes and amortize only near the top of the tree). Also the pin depth
  /// of the config bounder.
  std::size_t cg_bound_depth = 6;  // lint: allow-knob (tests set it)
  /// Grid of the root-only fine bisection pass. The certified config bound
  /// loses (n + classes)/grid to the conservative probe inflation, which at
  /// mid-size instances eats most of the relaxation's edge over the
  /// assignment LP — a one-off fine-grid pass at the root buys the bound
  /// back at a cost that amortizes over the whole tree (node probes keep
  /// the cheap ConfigBoundOptions::grid). Set <= that grid to disable the
  /// pass. Its wall clock is capped at half the remaining budget.
  std::size_t cg_root_grid = 16384;  // lint: allow-knob (perfbench reads)
};

/// Result contract of the exact subsystem. `proven_optimal` distinguishes
/// ground truth from budget-exhausted incumbents; consumers (registry,
/// experiment harness) must propagate it instead of treating every result
/// as an optimum. The effort counters include `nodes` (DFS nodes or beam
/// states), `lp_bounds_used` (assignment-LP probes: root search plus
/// per-node feasibility probes), `fixed_vars` (cumulative; a subtree-local
/// fix counts once per application), and the cg_* counters (BoundMode
/// kConfig/kAuto; 0 under kAssignment). The lp_* counters cover every LP
/// solve of the run: the assignment probes and, under kConfig/kAuto, one
/// configuration-LP RMP solve per pricing round (node probes and the
/// fine-grid root pass), so lp_solves == lp_bounds_used + cg_pricing_rounds.
struct ExactResult : EffortCounters {
  Schedule schedule;
  double makespan = 0.0;
  /// Best certified lower bound on OPT: the combinatorial bound of
  /// core/bounds.h, raised by the root LP relaxation when LP bounds are on;
  /// equals `makespan` when proven_optimal.
  double lower_bound = 0.0;
  /// Relative optimality gap (makespan - lower_bound) / lower_bound, >= 0.
  /// Exactly 0 iff proven_optimal.
  double gap = 0.0;
  bool proven_optimal = false;
};

/// Exact / ground-truth solver over job -> machine assignments.
///
/// kProve: depth-first branch-and-bound. Jobs are ordered class-by-class
/// (largest class workload first, sizes non-increasing inside a class) so
/// setup costs are discovered early. Pruning: branch load cuts against the
/// incumbent, an average-load bound, machine-equivalence symmetry breaking
/// (sound under eligibility, since equivalent machines have identical
/// columns), a dominance memo over (depth, load-profile, paid-setups)
/// states, and assignment-LP infeasibility at the current cutoff.
///
/// kDive: best-first beam search over the same job order with the same
/// symmetry reductions; reports the incumbent with its certified gap.
///
/// kDiveThenProve: the dive, then the depth-first search on the same
/// search state, starting from the dive's incumbent polished by local
/// search (polished_start). Both loops share one node budget (max_nodes)
/// and one deadline. Each call builds one assignment-LP bounder.
[[nodiscard]] ExactResult solve_exact(const Instance& instance,
                                      const ExactOptions& options = {});

/// The polished start of a prove search: the best of `seed` (when given),
/// `seed` after local search, and greedy after local search (the schedule
/// the `local-search` solver returns). Ties keep the earlier candidate, the
/// seed first. The kDiveThenProve chain seeds it with its dive's schedule;
/// the registry's `exact` solver calls it unseeded. Both pass the result as
/// ExactOptions::initial_schedule, so they are never worse than
/// `local-search`. solve_exact itself never polishes.
[[nodiscard]] Schedule polished_start(
    const Instance& instance, const std::optional<Schedule>& seed = std::nullopt);

/// Convenience overload (converts to the unrelated matrix form). The
/// uniform aggregate lower bound additionally tightens the reported
/// lower_bound/gap when it beats the unrelated one.
[[nodiscard]] ExactResult solve_exact(const UniformInstance& instance,
                                      const ExactOptions& options = {});

}  // namespace setsched
