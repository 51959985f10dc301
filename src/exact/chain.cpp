#include "exact/chain.h"

#include <algorithm>
#include <optional>

#include "common/timer.h"
#include "core/schedule.h"
#include "exact/dive.h"
#include "exact/search_util.h"
#include "improve/local_search.h"
#include "unrelated/greedy.h"

namespace setsched {

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

namespace exact {

ExactResult dive_then_prove(const Instance& inst, const ExactOptions& opt) {
  Timer timer;

  // Phase 1: a short dive for a strong incumbent. Capped at half the total
  // budget so the prove phase is never starved by its own warm-up.
  ExactOptions dive_opt = opt;
  dive_opt.mode = ExactMode::kDive;
  dive_opt.time_limit_s =
      std::min(opt.dive_time_limit_s, 0.5 * opt.time_limit_s);
  ExactResult dive = dive_search(inst, dive_opt);
  if (dive.proven_optimal) return dive;

  // Phase 2: prove, seeded with the polished dive schedule as the starting
  // incumbent (so root reduced-cost fixing bites at its makespan from node
  // 1, and a budget abort still returns at least that schedule). The dive's
  // spent node budget and the time of both the dive and the polish are
  // charged against the chain's total; an exhausted budget means the prove
  // pass aborts on its first expansion and returns the polished start.
  ExactOptions prove_opt = opt;
  prove_opt.mode = ExactMode::kProve;
  prove_opt.initial_schedule = polished_start(inst, dive.schedule);
  prove_opt.time_limit_s =
      std::max(0.0, opt.time_limit_s - timer.elapsed_seconds());
  prove_opt.max_nodes =
      opt.max_nodes > dive.nodes ? opt.max_nodes - dive.nodes : 0;
  ExactResult out = solve_exact(inst, prove_opt);

  // One RunRecord for the whole chain: effort counters are the sum of both
  // phases, and the certificate keeps the stronger of the two lower bounds.
  out += dive;
  if (!out.proven_optimal && dive.lower_bound > out.lower_bound) {
    certify(&out, dive.lower_bound, /*search_complete=*/false);
  }
  return out;
}

}  // namespace exact

}  // namespace setsched
