#include "exact/dive.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "exact/dominance.h"
#include "exact/search_util.h"
#include "obs/phase.h"
#include "obs/trace.h"

namespace setsched::exact {

/// How many kept nodes per level the dominance prefilter records, hence
/// checks each candidate against. Keeps the prefilter O(1) per candidate.
/// Sound at any value: a kept dominated node is redundant, never wrong.
constexpr std::size_t kDominanceScan = 64;

bool dive(Search& search, double box_s) {
  const Instance& inst = search.inst;
  const ExactOptions& opt = search.opt;
  const std::size_t n = inst.num_jobs();
  const std::size_t m = inst.num_machines();
  const SearchPlan& plan = search.plan;

  // Suffix sums of the cheapest processing times in branching order:
  // remaining_min[d] = minimum extra work once jobs order[0..d) are placed.
  std::vector<double> remaining_min(n + 1, 0.0);
  for (std::size_t d = n; d-- > 0;) {
    remaining_min[d] = remaining_min[d + 1] + plan.min_proc[plan.order[d]];
  }
  search.lower_bound = std::max(search.lower_bound,
                                remaining_min[0] / static_cast<double>(m));

  // Unlike the prove mode, the dive solves the root LP and fixes at the
  // root even when the incumbent already meets the bound.
  search.bound_root_lp();
  search.fix_root();

  const std::chrono::steady_clock::time_point until =
      deadline_in(box_s, search.deadline);
  const std::size_t width = std::max<std::size_t>(1, opt.beam_width);
  bool truncated = false;

  const obs::PhaseTimer dive_phase(obs::Phase::kDive);
  const obs::TraceSpan dive_span("dive", "exact");
  std::vector<Node> beam(1, Node(n, m, inst.num_classes()));
  // Level d + 1 records the first kDominanceScan non-dominated children of
  // level d. Each is kept or, at the width cap, ends the level, so every
  // check runs against kept nodes only.
  DominanceTable memo(n + 1, kDominanceScan);

  // Per level: the children, their completion lower bounds (max of the
  // makespan so far and the average-load bound over the remaining jobs),
  // and their order by that bound.
  std::vector<Node> children;
  std::vector<double> scores;
  std::vector<std::size_t> by_score;
  std::vector<Child> moves;
  for (std::size_t depth = 0; depth < n && !beam.empty(); ++depth) {
    // Time-boxed: once a budget runs out the beam collapses to a greedy
    // descent so a complete schedule is still reached quickly.
    std::size_t level_width = width;
    if (search.nodes >= opt.max_nodes ||
        std::chrono::steady_clock::now() > until) {
      level_width = 1;
      truncated = true;
    }
    if (beam.size() > level_width) {
      beam.erase(beam.begin() + static_cast<std::ptrdiff_t>(level_width),
                 beam.end());
      truncated = true;
    }

    const JobId j = plan.order[depth];
    children.clear();
    scores.clear();
    for (const Node& node : beam) {
      ++search.nodes;
      obs::emit_bulk_instant("node", "exact", "reason", "beam", "depth",
                             static_cast<double>(depth));
      moves.clear();
      search.append_children(node, j, &moves);
      for (const Child& c : moves) {
        Node child = node;
        child.place(j, c);
        const double score = std::max(
            child.max_load, (child.total_load + remaining_min[depth + 1]) /
                                static_cast<double>(m));
        // The average-load component can push the completion bound past the
        // cutoff even when no single load does.
        if (score >= search.prune_at) continue;
        children.push_back(std::move(child));
        scores.push_back(score);
      }
    }
    // Keep the best-scored nodes, dropping those an already kept (hence
    // better-scored) node dominates. stable_sort keeps the level
    // deterministic across platforms under score ties. The dominance check
    // runs BEFORE the width check: a dominated candidate is redundant
    // whether or not the kept set is full, so only dropping a NON-dominated
    // candidate forfeits the exhaustiveness certificate.
    by_score.resize(children.size());
    std::iota(by_score.begin(), by_score.end(), std::size_t{0});
    std::stable_sort(by_score.begin(), by_score.end(),
                     [&](std::size_t a, std::size_t b) {
                       return scores[a] < scores[b];
                     });
    std::vector<Node> kept;
    kept.reserve(std::min(level_width, children.size()));
    {
      const obs::PhaseTimer dom_timer(obs::Phase::kDominance);
      for (const std::size_t c : by_score) {
        Node& child = children[c];
        if (memo.dominated_or_record(depth + 1, child)) continue;
        if (kept.size() >= level_width) {
          truncated = true;
          break;
        }
        kept.push_back(std::move(child));
      }
    }
    beam = std::move(kept);
  }

  for (const Node& node : beam) search.improve(node);
  // If no node was ever dropped for width or time, the beam covered every
  // node that could beat the incumbent/cutoff (up to sound symmetry/
  // dominance/cutoff skips) and the dive degenerates to an exhaustive
  // search; otherwise optimality is only proven when the incumbent meets
  // the certified lower bound.
  return !truncated;
}

}  // namespace setsched::exact
