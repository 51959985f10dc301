#pragma once

#include <cstdint>

#include "core/instance.h"
#include "core/result.h"

namespace setsched {

struct LocalSearchResult {
  Schedule schedule;
  double makespan = 0.0;
  std::size_t moves_applied = 0;
  std::size_t sweeps = 0;
};

/// First-improvement local search over job moves, job swaps and whole-class
/// batch moves, steered by makespan with total squared load as tie-breaker
/// (so plateau moves that balance load are accepted). Stops after 2
/// consecutive non-improving sweeps or 60 sweeps in all (kPatience,
/// kMaxSweeps in local_search.cpp). A post-optimizer for any schedule; it
/// never worsens the input. Callers: the `local-search` solver (applied to
/// greedy_min_load) and polished_start (exact/branch_bound.cpp), the prove
/// start of the registry's `exact` (greedy_min_load polished) and of the
/// dive-then-prove chain (its dive's schedule polished too).
[[nodiscard]] LocalSearchResult local_search(const Instance& instance,
                                             const Schedule& start);

}  // namespace setsched
