#pragma once

#include "exact/search_util.h"

namespace setsched::exact {

/// The beam dive of ExactMode::kDive and of the kDiveThenProve chain: a
/// best-first beam search over the shared job order on `search` (see
/// branch_bound.h for the contract). It solves and fixes the root first;
/// `box_s` seconds from the end of that root step, or at the search's
/// deadline when that comes first, the beam collapses to a greedy descent.
/// Returns whether the dive was exhaustive: no reachable state was dropped.
[[nodiscard]] bool dive(Search& search, double box_s);

}  // namespace setsched::exact
