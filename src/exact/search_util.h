#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "exact/branch_bound.h"
#include "exact/lp_bound.h"
#include "exact/tolerances.h"

namespace setsched::exact {

/// Static per-instance search data shared by the dive and the DFS.
struct SearchPlan {
  /// Branching order: classes by descending total minimum work, jobs inside
  /// a class by descending minimum processing time (good incumbents early,
  /// setups shared early).
  std::vector<JobId> order;
  /// Cheapest eligible processing time per job.
  std::vector<double> min_proc;
  /// Sum of min_proc (seed of the average-load bound).
  double min_total = 0.0;
  /// Machine-equivalence representative: machines with identical processing
  /// columns and setup rows are interchangeable; rep[i] is the smallest
  /// equivalent machine. Sound under eligibility because equivalence implies
  /// identical eligibility.
  std::vector<MachineId> machine_rep;
};

[[nodiscard]] SearchPlan build_search_plan(const Instance& instance);

/// One child of a search node: the next job of the order on `machine`.
struct Child {
  MachineId machine;
  /// Index of the (machine, job class) flag in Node::class_on.
  std::size_t paid;
  /// The machine's load with the job, plus its setup when not yet paid.
  double new_load;
  /// What the job adds to the machine: processing time plus that setup.
  double added;
};

/// One search node: a partial schedule of a prefix of the job order with its
/// load and setup state. The beam dive copies nodes; the DFS mutates one
/// node in place and undoes each step.
struct Node {
  Node(std::size_t jobs, std::size_t machines, std::size_t classes)
      : assignment(jobs, kUnassigned),
        loads(machines, 0.0),
        class_on(machines * classes, 0) {}

  /// What place() overwrote; unplace() restores it.
  struct Undo {
    double load;
    double max_load;
    double total_load;
    char paid;
  };

  Undo place(JobId j, const Child& c) {
    const Undo undo{loads[c.machine], max_load, total_load, class_on[c.paid]};
    assignment[j] = c.machine;
    loads[c.machine] = c.new_load;
    class_on[c.paid] = 1;
    total_load += c.added;
    max_load = std::max(max_load, c.new_load);
    return undo;
  }

  void unplace(JobId j, const Child& c, const Undo& undo) {
    assignment[j] = kUnassigned;
    loads[c.machine] = undo.load;
    class_on[c.paid] = undo.paid;
    total_load = undo.total_load;
    max_load = undo.max_load;
  }

  std::vector<MachineId> assignment;  ///< kUnassigned beyond the depth
  std::vector<double> loads;
  std::vector<char> class_on;  ///< m x K paid-setup matrix, row-major
  double max_load = 0.0;
  double total_load = 0.0;
};

/// The dominance rule of both searches. Jobs are placed in a fixed order, so
/// nodes at the same depth have the same jobs left. A node with loads
/// `old_loads` (m entries) and paid setups `old_paid` (m x K) makes
/// `candidate` redundant when its loads are pointwise <= and it has paid
/// every setup the candidate paid: every completion of the candidate maps
/// to a completion of the old node that is at most as large.
[[nodiscard]] inline bool dominates(const double* old_loads,
                                    const char* old_paid,
                                    const Node& candidate) {
  for (std::size_t i = 0; i < candidate.loads.size(); ++i) {
    if (old_loads[i] > candidate.loads[i] + kDominanceLoadSlack) return false;
  }
  for (std::size_t e = 0; e < candidate.class_on.size(); ++e) {
    if (candidate.class_on[e] != 0 && old_paid[e] == 0) return false;
  }
  return true;
}

/// The whole state of one solve_exact() call, which both loops run on: the
/// beam dive and then the DFS, in that order, under kDiveThenProve. It
/// holds the incumbent, the bounds, the one assignment-LP bounder with its
/// fix trail, the node count and the call's one deadline, and generates
/// the children both loops branch with.
struct Search {
  /// Incumbent: best_machine_schedule, replaced by
  /// ExactOptions::initial_schedule when that is better (CheckError when it
  /// is incomplete or infeasible: an invalid external incumbent must fail
  /// loudly, not corrupt the ground truth). Lower bound: core/bounds.h's.
  /// Deadline: time_limit_s from now.
  Search(const Instance& instance, const ExactOptions& options);

  [[nodiscard]] bool incumbent_meets_lb() const {
    return incumbent <= lower_bound + kCertRelTol * std::max(1.0, lower_bound);
  }

  /// Solves the root assignment LP at the cutoff and raises lower_bound to
  /// its value (nothing unless use_lp_bounds and prune_at > 0). The bounder
  /// is built on the first call only; a later call, after the cutoff has
  /// tightened, re-solves the same model warm from its last basis.
  void bound_root_lp();

  /// Root reduced-cost fixing: pairs the root relaxation proves
  /// incompatible with beating the cutoff are excluded for the whole search
  /// (the front of `fixes`, never undone). The snapshot keeps the root
  /// solve's sensitivity bounds so every later incumbent can re-run the
  /// fixing at its tighter cutoff (LpBounder::refix_root) without another
  /// LP solve.
  void fix_root();

  /// Adopts `leaf` (a complete node) as the incumbent when it is better, and
  /// tightens the cutoff. Returns whether it did.
  bool improve(const Node& leaf);

  /// Adopts `schedule` (complete and feasible) as the incumbent when its
  /// makespan is better, and tightens the cutoff.
  void adopt(const Schedule& schedule);

  [[nodiscard]] bool past_deadline() const {
    return std::chrono::steady_clock::now() > deadline;
  }

  /// Appends the children of `node` for job j, in machine order: eligible
  /// machines that the bounder has not fixed away, that are no symmetric
  /// duplicate of an earlier machine, and whose new load stays below the
  /// cutoff (every completion of such a child is at least that load).
  void append_children(const Node& node, JobId j,
                       std::vector<Child>* out) const;

  /// The result: the incumbent, the bounder's effort plus `extra`, `nodes`,
  /// and the certificate (see certify).
  [[nodiscard]] ExactResult result(bool search_complete,
                                   const EffortCounters& extra = {}) const;

  const Instance& inst;
  const ExactOptions& opt;
  const SearchPlan plan;
  /// The one wall-clock budget of the call, checked by both loops.
  const std::chrono::steady_clock::time_point deadline;
  Schedule best;
  /// Makespan of `best`: always a schedule we hold.
  double incumbent;
  /// Certified lower bound on OPT.
  double lower_bound;
  /// Branches with load >= prune_at cannot lead to an acceptable schedule.
  double prune_at = kInfinity;
  std::optional<LpBounder> bounder;
  /// Reduced-cost fix trail: the root fixes, then (in the DFS) the live
  /// subtree fixes, which each node unfixes back to the size it saw.
  std::vector<std::pair<JobId, MachineId>> fixes;
  /// Nodes expanded so far, beam states and DFS nodes alike; the node
  /// budget max_nodes caps it.
  std::size_t nodes = 0;
};

/// Fills the certificate fields of `out` (proven_optimal, lower_bound, gap)
/// from the incumbent makespan, the best certified lower bound, and whether
/// the search ran to completion. An incumbent that meets the lower bound is
/// proven optimal even when the search was truncated; a complete search
/// raises the lower bound to the incumbent.
void certify(ExactResult* out, double lower_bound, bool search_complete);

}  // namespace setsched::exact
