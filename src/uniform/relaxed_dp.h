#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"
#include "uniform/groups.h"

namespace setsched {

enum class DpStatus {
  kFeasible,       ///< a relaxed schedule with makespan T exists (returned)
  kInfeasible,     ///< provably no relaxed schedule with makespan T
  kResourceLimit,  ///< state budget exhausted before deciding
};

/// A *relaxed schedule* (Sec. 2.1) materialized on concrete machines:
/// integral jobs are assigned (fringe jobs to their native group, core jobs
/// to their class's core group; fringe setups ignored), the rest are
/// fractional, to be packed by the Lemma 2.8 reconstruction.
struct RelaxedSchedule {
  /// Integral assignments; fractional jobs are kUnassigned.
  Schedule integral = Schedule::empty(0);
  /// Relaxed load L'_i per machine (integral processing + core setups).
  std::vector<double> relaxed_load;
  /// Fractional jobs keyed by their native group (fringe jobs) or their
  /// class's core group (core jobs); negative keys allowed.
  std::map<int, std::vector<JobId>> fractional_by_group;
};

struct RelaxedDpResult {
  DpStatus status = DpStatus::kInfeasible;
  RelaxedSchedule relaxed;
  std::size_t states = 0;
};

/// The dynamic program of Section 2.1: processes speed groups from slowest
/// to fastest; within a group, first the fringe jobs native to it (dummy
/// class, no setups), then each class whose core group it is (placements pay
/// the setup on first use per machine); any job may instead be declared
/// fractional, accumulating (with one setup per fringe-less class) into the
/// λ vector, which leaving machines' free space must absorb two groups up.
/// States are canonicalized and explored by BFS with full parent tracking,
/// so a feasible verdict comes with a concrete relaxed schedule.
///
/// `instance` must be a *simplified* instance (see simplify_instance) whose
/// sizes are dyadic rationals — all DP arithmetic is then exact. Beyond
/// `max_states` distinct states (PtasOptions::max_states) the DP aborts
/// with kResourceLimit.
[[nodiscard]] RelaxedDpResult solve_relaxed_dp(const UniformInstance& instance,
                                               const GroupStructure& groups,
                                               std::size_t max_states);

}  // namespace setsched
