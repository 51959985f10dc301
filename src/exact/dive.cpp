#include "exact/dive.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/bounds.h"
#include "core/schedule.h"
#include "exact/lp_bound.h"
#include "exact/search_util.h"
#include "exact/tolerances.h"
#include "obs/phase.h"
#include "obs/trace.h"

namespace setsched::exact {

namespace {

/// One partial schedule on the beam: the prefix assignment of the shared
/// job order plus the incrementally maintained load/setup state.
struct BeamState {
  std::vector<MachineId> assignment;  ///< full n, kUnassigned beyond depth
  std::vector<double> loads;
  std::vector<char> class_on;  ///< m x K paid-setup matrix, row-major
  double max_load = 0.0;
  double total_load = 0.0;
  /// Completion lower bound (beam priority): max of the current makespan and
  /// the average-load bound over the remaining jobs.
  double score = 0.0;
};

/// True iff `kept` (a better-scored state) makes `candidate` redundant:
/// pointwise <= loads and >= paid setups, so every completion of the
/// candidate is matched or beaten.
bool dominated_by(const BeamState& kept, const BeamState& candidate) {
  for (std::size_t i = 0; i < kept.loads.size(); ++i) {
    if (kept.loads[i] > candidate.loads[i] + kDominanceLoadSlack) return false;
  }
  for (std::size_t e = 0; e < kept.class_on.size(); ++e) {
    if (candidate.class_on[e] != 0 && kept.class_on[e] == 0) return false;
  }
  return true;
}

}  // namespace

ExactResult dive_search(const Instance& inst, const ExactOptions& opt) {
  const std::size_t n = inst.num_jobs();
  const std::size_t m = inst.num_machines();
  const std::size_t kc = inst.num_classes();
  const SearchPlan plan = build_search_plan(inst);

  // Incumbent: the trivial greedy schedule, improved by the caller's
  // initial_schedule when one is supplied.
  Schedule best_schedule = best_machine_schedule(inst);
  double incumbent = makespan(inst, best_schedule);
  if (opt.initial_schedule.has_value()) {
    adopt_initial_schedule(inst, *opt.initial_schedule, &best_schedule,
                           &incumbent);
  }
  double lower_bound = unrelated_lower_bound(inst);

  // Pruning cutoff, mirroring the prove mode's semantics: a state whose
  // completion bound reaches the incumbent cannot improve on a schedule we
  // already hold, and the external initial_upper_bound is INCLUSIVE — a
  // schedule equal to the bound is still acceptable, so it enters with a
  // small upward slack. (PR 5's dive ignored the external bound entirely,
  // breaking the documented ExactOptions contract.) Cutoff drops are sound
  // exclusions and never count as beam truncation.
  double prune_at = incumbent - kIncumbentPruneSlack;
  if (opt.initial_upper_bound > 0.0) {
    prune_at = std::min(
        prune_at, opt.initial_upper_bound * (1.0 + kExternalBoundRelSlack) +
                      kExternalBoundAbsSlack);
  }

  // Suffix sums of the cheapest processing times in branching order:
  // remaining_min[d] = minimum extra work once jobs order[0..d) are placed.
  std::vector<double> remaining_min(n + 1, 0.0);
  for (std::size_t d = n; d-- > 0;) {
    remaining_min[d] = remaining_min[d + 1] + plan.min_proc[plan.order[d]];
  }
  lower_bound = std::max(lower_bound,
                         remaining_min[0] / static_cast<double>(m));

  ExactResult out;
  std::optional<LpBounder> bounder;
  std::vector<std::pair<JobId, MachineId>> fixed_pairs;
  if (opt.use_lp_bounds && prune_at > 0.0) {
    const obs::PhaseTimer phase(obs::Phase::kRootBound);
    const obs::TraceSpan span("root_bound", "exact");
    bounder.emplace(inst, prune_at, opt.simplex);
    if (bounder->available()) {
      lower_bound = std::max(
          lower_bound, bounder->root_lower_bound(lower_bound, prune_at));
      // Root reduced-cost fixing at the real cutoff (incumbent and external
      // bound, not just the trivial incumbent): pairs that provably cannot
      // beat it never enter the beam, cutting the branching factor of
      // every level.
      if (opt.reduced_cost_fixing) {
        bounder->fix_dominated(prune_at, &fixed_pairs);
      }
    }
  }

  Timer timer;
  const std::size_t width = std::max<std::size_t>(1, opt.beam_width);
  std::size_t nodes = 0;
  bool truncated = false;

  const obs::PhaseTimer dive_phase(obs::Phase::kDive);
  const obs::TraceSpan dive_span("dive", "exact");
  std::vector<BeamState> beam(1);
  beam[0].assignment.assign(n, kUnassigned);
  beam[0].loads.assign(m, 0.0);
  beam[0].class_on.assign(m * kc, 0);
  beam[0].score = lower_bound;

  std::vector<BeamState> children;
  for (std::size_t depth = 0; depth < n && !beam.empty(); ++depth) {
    // Time-boxed: once a budget runs out the beam collapses to a greedy
    // descent so a complete schedule is still reached quickly.
    std::size_t level_width = width;
    if (timer.elapsed_seconds() > opt.time_limit_s || nodes >= opt.max_nodes ||
        (opt.deadline && std::chrono::steady_clock::now() > *opt.deadline)) {
      level_width = 1;
      truncated = true;
    }
    if (beam.size() > level_width) {
      beam.resize(level_width);
      truncated = true;
    }

    const JobId j = plan.order[depth];
    const ClassId k = inst.job_class(j);
    children.clear();
    for (const BeamState& state : beam) {
      ++nodes;
      obs::emit_bulk_instant("node", "exact", "reason", "beam", "depth",
                             static_cast<double>(depth));
      for (MachineId i = 0; i < m; ++i) {
        if (!inst.eligible(i, j)) continue;
        if (bounder && bounder->pair_fixed(j, i)) continue;
        if (symmetric_duplicate(inst, plan, i, state.loads, state.class_on)) {
          continue;
        }
        const bool has_setup = state.class_on[i * kc + k] != 0;
        const double add_setup = has_setup ? 0.0 : inst.setup(i, k);
        const double new_load = state.loads[i] + inst.proc(i, j) + add_setup;
        // Cutoff cut before the (expensive) state copy: every completion of
        // this child has makespan >= new_load >= prune_at, so it can never
        // be accepted. A sound exclusion, not a truncation.
        if (new_load >= prune_at) continue;
        BeamState child = state;
        child.assignment[j] = i;
        child.loads[i] = new_load;
        child.class_on[i * kc + k] = 1;
        child.total_load += inst.proc(i, j) + add_setup;
        child.max_load = std::max(child.max_load, new_load);
        child.score = std::max(
            child.max_load, (child.total_load + remaining_min[depth + 1]) /
                                static_cast<double>(m));
        // The average-load component can push the completion bound past the
        // cutoff even when no single load does.
        if (child.score >= prune_at) continue;
        children.push_back(std::move(child));
      }
    }
    // Keep the best-scored states, dropping those an already kept (hence
    // better-scored) state dominates. stable_sort keeps the level
    // deterministic across platforms under score ties. The dominance check
    // runs BEFORE the width check: a dominated candidate is redundant
    // whether or not the kept set is full, so only dropping a NON-dominated
    // candidate forfeits the exhaustiveness certificate. (PR 5 broke out of
    // the loop the moment the kept set filled, flagging `truncated` even
    // when every remaining child was dominated — small instances whose
    // survivors exactly fit the width lost their proven_optimal.)
    std::stable_sort(children.begin(), children.end(),
                     [](const BeamState& a, const BeamState& b) {
                       return a.score < b.score;
                     });
    std::vector<BeamState> kept;
    kept.reserve(std::min(level_width, children.size()));
    {
      const obs::PhaseTimer dom_timer(obs::Phase::kDominance);
      for (BeamState& child : children) {
        bool redundant = false;
        const std::size_t scan =
            opt.dive_dominance_scan == 0
                ? kept.size()
                : std::min(kept.size(), opt.dive_dominance_scan);
        for (std::size_t s = 0; s < scan && !redundant; ++s) {
          redundant = dominated_by(kept[s], child);
        }
        if (redundant) continue;
        if (kept.size() >= level_width) {
          truncated = true;
          break;
        }
        kept.push_back(std::move(child));
      }
    }
    beam = std::move(kept);
  }

  for (const BeamState& state : beam) {
    if (state.max_load < incumbent) {
      incumbent = state.max_load;
      best_schedule.assignment = state.assignment;
    }
  }

  out.schedule = std::move(best_schedule);
  out.makespan = makespan(inst, out.schedule);
  if (bounder) out.effort() = bounder->effort();
  out.nodes = nodes;
  // If no state was ever dropped for width or time, the beam covered every
  // state that could beat the incumbent/cutoff (up to sound symmetry/
  // dominance/cutoff skips) and the dive degenerates to an exhaustive
  // search; otherwise optimality is only proven when the incumbent meets
  // the certified lower bound.
  certify(&out, lower_bound, /*search_complete=*/!truncated);
  return out;
}

}  // namespace setsched::exact
