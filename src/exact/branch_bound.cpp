#include "exact/branch_bound.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>
#include <vector>

#include "core/bounds.h"
#include "core/schedule.h"
#include "exact/config_bound.h"
#include "exact/dive.h"
#include "exact/dominance.h"
#include "exact/lp_bound.h"
#include "exact/search_util.h"
#include "exact/tolerances.h"
#include "improve/local_search.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "unrelated/greedy.h"

namespace setsched {

namespace {

using exact::ConfigLpBounder;
using exact::DominanceTable;
using exact::LpBounder;

/// One "node" instant per counted search node, tagged with why the node
/// terminated (or "expanded" when it branched). tools/analyze_trace.py
/// reconciles the recorded plus shed instants against SolverStats::nodes.
void emit_node(const char* reason, std::size_t depth) {
  obs::emit_bulk_instant("node", "exact", "reason", reason, "depth",
                         static_cast<double>(depth));
}

/// The depth-first branch-and-bound of ExactMode::kProve and of the
/// kDiveThenProve chain, run on `search` (see branch_bound.h). One node is
/// mutated in place and every step is undone on the way back.
class ProveSolver {
 public:
  explicit ProveSolver(exact::Search& search)
      : search_(search),
        node_(search.inst.num_jobs(), search.inst.num_machines(),
              search.inst.num_classes()) {}

  ExactResult run() {
    const ExactOptions& opt = search_.opt;
    // The root LP only pays off when the incumbent is not already proven.
    if (!search_.incumbent_meets_lb()) {
      search_.bound_root_lp();
      if (!search_.incumbent_meets_lb()) search_.fix_root();
    }

    // Branch-and-price: the configuration-LP bounder prices columns against
    // the same cutoff. Its root bisection runs AFTER the assignment LP's
    // exact root solve, so the combined certified bound dominates the
    // assignment bound by construction; kAuto drops the config bounder on
    // the spot when that bisection bought nothing.
    if (opt.use_lp_bounds && opt.bound != BoundMode::kAssignment &&
        search_.prune_at > 0.0 && !search_.incumbent_meets_lb()) {
      bound_root_config_lp();
    }

    if (!search_.incumbent_meets_lb()) {
      const obs::PhaseTimer phase(obs::Phase::kProve);
      const obs::TraceSpan span("prove", "exact");
      if (opt.memo_limit > 0) {
        memo_.emplace(search_.inst.num_jobs() + 1, opt.memo_limit);
      }
      dfs(0, search_.plan.min_total);
    }

    EffortCounters extra = cg_extra_;
    if (cg_bounder_) extra += cg_bounder_->effort();
    return search_.result(!aborted_, extra);
  }

 private:
  void bound_root_config_lp() {
    const ExactOptions& opt = search_.opt;
    const double prune_at = search_.prune_at;
    const obs::PhaseTimer phase(obs::Phase::kRootBound);
    const obs::TraceSpan span("cg_root_bound", "exact");
    exact::ConfigBoundOptions cg;
    cg.simplex = opt.simplex;
    // The coarse bisection stops at the search's deadline. Node probes
    // ignore it (see ConfigBoundOptions::deadline).
    cg.deadline = search_.deadline;
    cg_bounder_.emplace(search_.inst, prune_at, cg);
    if (!cg_bounder_->available()) return;
    const double base = search_.lower_bound;
    double cg_lb = cg_bounder_->root_lower_bound(base, prune_at);
    if (opt.cg_root_grid > cg.grid) {
      // Fine-grid root pass: a throwaway bounder whose smaller conservative
      // inflation certifies what the coarse grid cannot. Wall clock capped
      // at half the remaining budget so it can never starve the prove
      // phase; its effort folds into the result.
      exact::ConfigBoundOptions fine = cg;
      fine.grid = opt.cg_root_grid;
      const auto now = std::chrono::steady_clock::now();
      if (search_.deadline > now) {
        fine.deadline = now + (search_.deadline - now) / 2;
        exact::ConfigLpBounder fine_bounder(search_.inst, prune_at, fine);
        if (fine_bounder.available()) {
          cg_lb = std::max(cg_lb, fine_bounder.root_lower_bound(
                                      std::max(base, cg_lb), prune_at));
          cg_extra_ += fine_bounder.effort();
        }
      }
    }
    search_.lower_bound = std::max(search_.lower_bound, cg_lb);
    cg_active_ = true;
    if (opt.bound == BoundMode::kAuto &&
        cg_lb <= base + exact::kCgRootGapRelTol * std::max(1.0, base)) {
      // Root bound no better than the assignment LP's: demote for the whole
      // search instead of paying per-node pricing for nothing.
      cg_active_ = false;
      ++cg_extra_.cg_fallbacks;
    }
  }

  /// True when no further node may be expanded. Checked BEFORE a node is
  /// counted, so a tree fully explored at exactly max_nodes nodes finishes
  /// proven: the budget only aborts when an (max_nodes+1)-th expansion is
  /// actually attempted. The clock is read every 64 nodes and before every
  /// node at an LP-probed depth: on large instances one probe can take a
  /// second, so 64 of them would run far past the deadline.
  [[nodiscard]] bool hit_budget(std::size_t depth) const {
    if (search_.nodes >= search_.opt.max_nodes) return true;
    const bool probed = search_.bounder && depth > 0 &&
                        depth <= search_.opt.lp_bound_depth;
    return ((search_.nodes & 0x3F) == 0 || probed) && search_.past_deadline();
  }

  void dfs(std::size_t depth, double remaining_min) {
    if (aborted_ || optimal_reached_) return;
    if (hit_budget(depth)) {
      aborted_ = true;
      return;
    }
    ++search_.nodes;
    const ExactOptions& opt = search_.opt;
    std::optional<LpBounder>& bounder = search_.bounder;
    if (depth == search_.plan.order.size()) {
      emit_node("leaf", depth);
      if (search_.improve(node_)) {
        obs::emit_instant("incumbent", "exact", nullptr, nullptr, "makespan",
                          node_.max_load);
        if (search_.incumbent_meets_lb()) {
          optimal_reached_ = true;
        } else if (bounder) {
          // Incremental root fixing: the root snapshot's sensitivity bounds
          // are re-applied at the tightened cutoff. Permanent (no undo
          // entry), so the fixes survive every subtree-scope unwind.
          const obs::PhaseTimer refix_timer(obs::Phase::kRefix);
          const std::size_t fixed = bounder->refix_root(search_.prune_at);
          obs::emit_instant("refix", "exact", nullptr, nullptr, "fixed",
                            static_cast<double>(fixed));
        }
      }
      return;
    }

    // Average-load bound: total future load is at least current total plus
    // each remaining job's cheapest processing time.
    const double total_now =
        std::accumulate(node_.loads.begin(), node_.loads.end(), 0.0);
    if ((total_now + remaining_min) / static_cast<double>(node_.loads.size()) >=
        search_.prune_at) {
      emit_node("bound", depth);
      return;
    }

    // Dominance memo (cheap compare) before the LP probe (simplex solve).
    if (memo_ && depth >= 2) {
      bool dominated = false;
      {
        const obs::PhaseTimer dom_timer(obs::Phase::kDominance);
        dominated = memo_->dominated_or_record(depth, node_);
      }
      if (dominated) {
        emit_node("dominance", depth);
        return;
      }
    }

    // LP relaxation with the path pinned: a fractional bound at or above the
    // cutoff means no completion of this partial schedule can be accepted.
    // A surviving node's duals feed reduced-cost fixing: pairs whose reduced
    // cost exceeds the incumbent gap are excluded for this whole subtree
    // (undone on exit; the cutoff only tightens, so fixes stay valid).
    const std::size_t fix_base = search_.fixes.size();
    const bool lp_probed = bounder && depth > 0 && depth <= opt.lp_bound_depth;
    if (lp_probed && !bounder->feasible(search_.prune_at)) {
      emit_node("lp_infeasible", depth);
      return;
    }

    // Branch-and-price probe, AFTER the assignment probe (it only has to
    // catch what the weaker relaxation missed): prices pin-consistent
    // configuration columns until the RMP certifies the pinned partial
    // schedule cannot finish within the cutoff. A demoted probe (stall /
    // contested RMP) answers "no bound" inside feasible().
    if (cg_active_ && depth > 0 && depth <= opt.cg_bound_depth) {
      if (!cg_bounder_->feasible(search_.prune_at)) {
        emit_node("cg_infeasible", depth);
        return;
      }
      if (opt.bound == BoundMode::kAuto &&
          cg_bounder_->consecutive_stalls() >= exact::kCgAutoStallLimit) {
        // Pricing keeps hitting the round limit without a verdict: stop
        // paying for config probes for the rest of the search.
        cg_active_ = false;
        ++cg_extra_.cg_fallbacks;
      }
    }

    // Node reduced-cost fixing only after EVERY probe agreed the node
    // survives: fixes appended here are scoped to this node's pins, and an
    // early prune-return above would leak them into the node's siblings
    // (the unfix below never runs), excluding pairs that are perfectly
    // viable there. The fixing reuses the duals of the assignment probe's
    // solve, which the config probe does not disturb.
    if (lp_probed) bounder->fix_dominated(search_.prune_at, &search_.fixes);

    emit_node("expanded", depth);
    const JobId j = search_.plan.order[depth];

    // Children sorted by resulting load (best-first search).
    std::vector<exact::Child> children;
    children.reserve(node_.loads.size());
    search_.append_children(node_, j, &children);
    std::sort(children.begin(), children.end(),
              [](const exact::Child& a, const exact::Child& b) {
                return a.new_load < b.new_load;
              });

    const double next_remaining = remaining_min - search_.plan.min_proc[j];
    const bool pin = bounder && depth < opt.lp_bound_depth;
    const bool cg_pin = cg_active_ && depth < opt.cg_bound_depth;
    for (const exact::Child& c : children) {
      // The cutoff may have tightened — and refix_root may have excluded
      // this pair — while earlier siblings ran.
      if (c.new_load >= search_.prune_at) continue;
      if (bounder && bounder->pair_fixed(j, c.machine)) continue;
      const exact::Node::Undo undo = node_.place(j, c);
      if (pin) bounder->pin(j, c.machine);
      if (cg_pin) cg_bounder_->pin(j, c.machine);

      dfs(depth + 1, next_remaining);

      if (cg_pin) cg_bounder_->unpin(j);
      if (pin) bounder->unpin(j);
      node_.unplace(j, c, undo);
      if (aborted_ || optimal_reached_) return;  // search over; no unfix
    }
    if (bounder && search_.fixes.size() > fix_base) {
      bounder->unfix(&search_.fixes, fix_base);
    }
  }

  exact::Search& search_;
  std::optional<ConfigLpBounder> cg_bounder_;
  /// Config probes run only while true; kAuto clears it (permanent demotion)
  /// when the bounder stops earning its keep. The bounder object outlives
  /// the flag so unwinding unpins — and the final counters — stay valid.
  bool cg_active_ = false;
  /// Effort of the throwaway fine-grid root bounder (it does not outlive
  /// the root) plus the kAuto demotions, which count as cg_fallbacks.
  EffortCounters cg_extra_;
  std::optional<DominanceTable> memo_;
  exact::Node node_;

  bool aborted_ = false;
  bool optimal_reached_ = false;
};

}  // namespace

ExactResult solve_exact(const Instance& instance, const ExactOptions& options) {
  instance.validate();
  exact::Search search(instance, options);
  if (options.mode != ExactMode::kProve) {
    const bool chain = options.mode == ExactMode::kDiveThenProve;
    const double box =
        chain ? std::min(options.dive_time_limit_s, 0.5 * options.time_limit_s)
              : options.time_limit_s;
    const bool exhaustive = exact::dive(search, box);
    ExactResult dived = search.result(exhaustive);
    if (!chain || dived.proven_optimal) return dived;
    // The DFS starts from the polished dive schedule, so root fixing and
    // the load cuts bite at its makespan from its first node, and a budget
    // abort returns at least that schedule. Its root step re-solves the
    // dive's root model warm at the tightened cutoff.
    search.adopt(polished_start(instance, search.best));
  }
  return ProveSolver(search).run();
}

Schedule polished_start(const Instance& inst,
                        const std::optional<Schedule>& seed) {
  const LocalSearchResult from_greedy =
      local_search(inst, greedy_min_load(inst).schedule);
  if (!seed) return from_greedy.schedule;
  Schedule best = *seed;
  double best_makespan = makespan(inst, best);
  const auto offer = [&](const LocalSearchResult& polished) {
    if (polished.makespan < best_makespan) {
      best = polished.schedule;
      best_makespan = polished.makespan;
    }
  };
  offer(local_search(inst, *seed));
  offer(from_greedy);
  return best;
}

ExactResult solve_exact(const UniformInstance& instance,
                        const ExactOptions& options) {
  ExactResult result = solve_exact(instance.to_unrelated(), options);
  // The uniform aggregate bound can beat the unrelated per-job bound; use it
  // to tighten the certificate of a truncated search.
  if (!result.proven_optimal) {
    const double uniform_lb = uniform_lower_bound(instance);
    if (uniform_lb > result.lower_bound) {
      exact::certify(&result, uniform_lb, false);
    }
  }
  return result;
}

}  // namespace setsched
