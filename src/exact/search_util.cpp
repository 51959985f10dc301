#include "exact/search_util.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/timer.h"
#include "core/bounds.h"
#include "core/schedule.h"
#include "core/types.h"
#include "exact/tolerances.h"
#include "obs/phase.h"
#include "obs/trace.h"

namespace setsched::exact {

SearchPlan build_search_plan(const Instance& instance) {
  const std::size_t n = instance.num_jobs();
  const std::size_t m = instance.num_machines();
  const std::size_t kc = instance.num_classes();

  SearchPlan plan;
  plan.min_proc.resize(n);
  for (JobId j = 0; j < n; ++j) {
    double mn = kInfinity;
    for (MachineId i = 0; i < m; ++i) {
      if (instance.eligible(i, j)) mn = std::min(mn, instance.proc(i, j));
    }
    plan.min_proc[j] = mn;
  }
  std::vector<double> class_weight(kc, 0.0);
  for (JobId j = 0; j < n; ++j) {
    class_weight[instance.job_class(j)] += plan.min_proc[j];
  }
  plan.order.resize(n);
  std::iota(plan.order.begin(), plan.order.end(), 0);
  std::stable_sort(plan.order.begin(), plan.order.end(),
                   [&](JobId a, JobId b) {
                     const ClassId ka = instance.job_class(a);
                     const ClassId kb = instance.job_class(b);
                     if (ka != kb) {
                       if (class_weight[ka] != class_weight[kb]) {
                         return class_weight[ka] > class_weight[kb];
                       }
                       return ka < kb;
                     }
                     return plan.min_proc[a] > plan.min_proc[b];
                   });
  plan.min_total =
      std::accumulate(plan.min_proc.begin(), plan.min_proc.end(), 0.0);

  plan.machine_rep.resize(m);
  for (MachineId i = 0; i < m; ++i) {
    plan.machine_rep[i] = i;
    for (MachineId r = 0; r < i; ++r) {
      if (plan.machine_rep[r] != r) continue;
      bool same = true;
      for (JobId j = 0; j < n && same; ++j) {
        same = instance.proc(i, j) == instance.proc(r, j);
      }
      for (ClassId k = 0; k < kc && same; ++k) {
        same = instance.setup(i, k) == instance.setup(r, k);
      }
      if (same) {
        plan.machine_rep[i] = r;
        break;
      }
    }
  }
  return plan;
}

namespace {

/// True iff machine `i` duplicates an earlier candidate under the node's
/// state: some equivalent machine r < i has the same load and the same
/// paid-setup row, so branching on r already covers i up to the swap
/// automorphism.
bool symmetric_duplicate(const Instance& instance, const SearchPlan& plan,
                         MachineId i, const Node& node) {
  const MachineId rep = plan.machine_rep[i];
  if (rep == i) return false;
  const std::size_t kc = instance.num_classes();
  for (MachineId r = rep; r < i; ++r) {
    if (plan.machine_rep[r] != rep) continue;
    if (node.loads[r] != node.loads[i]) continue;
    bool same = true;
    for (ClassId k = 0; k < kc && same; ++k) {
      same = node.class_on[r * kc + k] == node.class_on[i * kc + k];
    }
    if (same) return true;
  }
  return false;
}

/// The pruning cutoff. Ties with the incumbent are no improvement, so it
/// sits a hair below the incumbent.
double cutoff(double incumbent) { return incumbent - kIncumbentPruneSlack; }

}  // namespace

Search::Search(const Instance& instance, const ExactOptions& options)
    : inst(instance),
      opt(options),
      plan(build_search_plan(instance)),
      deadline(deadline_in(options.time_limit_s)),
      best(best_machine_schedule(instance)),
      incumbent(makespan(instance, best)),
      lower_bound(unrelated_lower_bound(instance)) {
  if (opt.initial_schedule.has_value()) {
    const std::optional<std::string> error =
        schedule_error(inst, *opt.initial_schedule);
    check(!error.has_value(),
          "ExactOptions::initial_schedule is not a feasible schedule: " +
              (error ? *error : std::string()));
    adopt(*opt.initial_schedule);
  }
  prune_at = cutoff(incumbent);
}

void Search::bound_root_lp() {
  if (!opt.use_lp_bounds || prune_at <= 0.0) return;
  const obs::PhaseTimer phase(obs::Phase::kRootBound);
  const obs::TraceSpan span("root_bound", "exact");
  if (!bounder) bounder.emplace(inst, prune_at, opt.simplex);
  if (bounder->available()) {
    lower_bound =
        std::max(lower_bound, bounder->root_lower_bound(lower_bound, prune_at));
  }
}

void Search::fix_root() {
  if (!bounder) return;
  const obs::PhaseTimer phase(obs::Phase::kRootBound);
  bounder->fix_dominated(prune_at, &fixes);
  bounder->save_root_snapshot();
}

bool Search::improve(const Node& leaf) {
  if (leaf.max_load >= incumbent) return false;
  incumbent = leaf.max_load;
  best.assignment = leaf.assignment;
  prune_at = cutoff(incumbent);
  return true;
}

void Search::adopt(const Schedule& schedule) {
  const double value = makespan(inst, schedule);
  if (value >= incumbent) return;
  best = schedule;
  incumbent = value;
  prune_at = cutoff(incumbent);
}

void Search::append_children(const Node& node, JobId j,
                             std::vector<Child>* out) const {
  const std::size_t kc = inst.num_classes();
  const ClassId k = inst.job_class(j);
  for (MachineId i = 0; i < inst.num_machines(); ++i) {
    if (!inst.eligible(i, j)) continue;
    if (bounder && bounder->pair_fixed(j, i)) continue;
    if (symmetric_duplicate(inst, plan, i, node)) continue;
    const std::size_t paid = i * kc + k;
    const double add_setup = node.class_on[paid] != 0 ? 0.0 : inst.setup(i, k);
    const double new_load = node.loads[i] + inst.proc(i, j) + add_setup;
    if (new_load >= prune_at) continue;
    out->push_back({i, paid, new_load, inst.proc(i, j) + add_setup});
  }
}

ExactResult Search::result(bool search_complete,
                           const EffortCounters& extra) const {
  ExactResult out;
  out.schedule = best;
  out.makespan = makespan(inst, best);
  if (bounder) out.effort() = bounder->effort();
  out += extra;
  out.nodes = nodes;
  certify(&out, lower_bound, search_complete);
  return out;
}

void certify(ExactResult* out, double lower_bound, bool search_complete) {
  const double tol = kCertRelTol * std::max(1.0, lower_bound);
  out->proven_optimal =
      search_complete || out->makespan <= lower_bound + tol;
  if (out->proven_optimal) {
    out->lower_bound = out->makespan;
    out->gap = 0.0;
  } else {
    out->lower_bound = lower_bound;
    out->gap = std::max(
        0.0, (out->makespan - lower_bound) /
                 std::max(lower_bound, kGapDenominatorFloor));
  }
}

}  // namespace setsched::exact
