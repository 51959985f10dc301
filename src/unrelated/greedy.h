#pragma once

#include "core/instance.h"
#include "core/result.h"

namespace setsched {

/// List-scheduling baseline: jobs sorted by non-increasing cheapest
/// processing time; each job goes to the machine minimizing the resulting
/// load (processing + setup if its class is new there). No guarantee on
/// unrelated machines; standard practical baseline for E3/E4.
[[nodiscard]] ScheduleResult greedy_min_load(const Instance& instance);

}  // namespace setsched
