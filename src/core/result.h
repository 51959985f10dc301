#pragma once

#include "core/counters.h"
#include "core/schedule.h"

namespace setsched {

/// Solver-level effort counters (core/counters.h) and certificates,
/// reported alongside a schedule so perf work can compare algorithms by what
/// they did (LP solves, simplex iterations, search nodes) and quality tables
/// can distinguish proven optima from budget-exhausted incumbents.
struct SolverStats : EffortCounters {
  /// True only when the solver certified its schedule optimal. A search
  /// solver that ran out of budget MUST leave this false — consumers treat
  /// proven results as ground truth.
  bool proven_optimal = false;
  /// Certified relative optimality gap, >= 0 (0 iff proven_optimal).
  /// Negative means the solver issues no certificate (heuristics).
  double gap = -1.0;

  [[nodiscard]] bool operator==(const SolverStats&) const = default;
};

/// Common return type of scheduling algorithms: a complete schedule plus its
/// (already evaluated) makespan.
struct ScheduleResult {
  Schedule schedule;
  double makespan = 0.0;
  SolverStats stats;
};

}  // namespace setsched
