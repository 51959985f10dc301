#pragma once

#include "exact/branch_bound.h"

namespace setsched::exact {

/// ExactMode::kDiveThenProve implementation: a time-boxed kDive pass whose
/// incumbent schedule, polished by local search, seeds a kProve pass (see
/// branch_bound.h for the contract). Internal to src/exact; call through
/// solve_exact().
[[nodiscard]] ExactResult dive_then_prove(const Instance& instance,
                                          const ExactOptions& options);

}  // namespace setsched::exact
