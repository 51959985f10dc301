#include "exact/config_bound.h"

#include <algorithm>

#include "exact/tolerances.h"

namespace setsched::exact {

namespace {

/// Probe budget of the root-bound bisection.
constexpr std::size_t kRootProbes = 12;
/// Pricing-round budget of each ROOT bisection probe. Root probes amortize
/// over the whole tree, so they get enough rounds to actually converge (a
/// node-probe stall just skips one prune; a root-probe stall forfeits the
/// certified bound for the entire search).
constexpr std::size_t kRootRounds = 80;

}  // namespace

ConfigLpBounder::ConfigLpBounder(const Instance& instance, double T_build,
                                 const ConfigBoundOptions& options)
    : opt_(options) {
  if (T_build <= 0.0 || opt_.grid == 0) return;
  const std::size_t n = instance.num_jobs();
  slack_ = static_cast<double>(n + instance.num_classes()) /
           static_cast<double>(opt_.grid);
  if (slack_ >= kCgMaxGridSlack) return;  // grid too coarse to say anything

  lp::SimplexOptions simplex = opt_.simplex;
  simplex.guard = true;  // every prune verdict must survive the audit
  master_.emplace(instance, opt_.grid, ColumnFit::kTrueLoad, simplex,
                  /*colgen_phase=*/false);
  // The prune certificate needs headroom for pricing's per-machine dual
  // tolerance (see kCgCoverageSlackPerRow).
  prune_below_ = static_cast<double>(n) -
                 static_cast<double>(instance.num_machines() + 1) *
                     kCgCoverageSlackPerRow;
}

bool ConfigLpBounder::probe_verdict(double T, std::size_t max_rounds) {
  if (!master_ || T <= 0.0) return true;  // no bounder, no pruning
  ++probes_;
  master_->retune(T / (1.0 - slack_));
  const ConfigLpStatus status = master_->probe(max_rounds);
  if (status == ConfigLpStatus::kContested ||
      status == ConfigLpStatus::kIterationLimit) {
    // Demoted to "no bound"; only round-limit stalls feed the demotion signal.
    if (status == ConfigLpStatus::kIterationLimit) ++consecutive_stalls_;
    ++fallbacks_;
    return true;
  }
  consecutive_stalls_ = 0;
  // kPinsOverflow: the jobs pinned to one machine alone overflow the grid,
  // so their true load exceeds T in every completion (grid conservatism).
  // kInfeasibleAtGrid: exhaustive pricing leaves duals feasible for the
  // full pin-consistent master, so its optimum is bounded by the RMP's.
  return status == ConfigLpStatus::kFeasible ||
         (status == ConfigLpStatus::kInfeasibleAtGrid &&
          master_->coverage() >= prune_below_);
}

bool ConfigLpBounder::feasible(double T) {
  return probe_verdict(T, opt_.rounds_per_node);
}

double ConfigLpBounder::root_lower_bound(double lo, double hi) {
  if (!master_ || hi <= 0.0 || lo >= hi) return lo;
  double certified = lo;
  double ceiling = hi;
  const std::size_t rounds = std::max(opt_.rounds_per_node, kRootRounds);
  for (std::size_t used = 0; used < kRootProbes; ++used) {
    if (ceiling - certified <= kCgRootGapRelTol * std::max(1.0, certified) ||
        (opt_.deadline && std::chrono::steady_clock::now() > *opt_.deadline)) {
      break;  // narrow enough, or out of wall clock: keep what is certified
    }
    const double mid = 0.5 * (certified + ceiling);
    if (probe_verdict(mid, rounds)) {
      // Not certified infeasible — treat as the new search ceiling (grid
      // feasibility is monotone in T up to rounding granularity; a wrong
      // guess here only wastes probes, never the bound's validity).
      ceiling = mid;
    } else {
      certified = mid;  // OPT > mid, certified
    }
  }
  // Root stalls must not count toward the caller's NODE-probe demotion
  // signal: a generous-round root probe that still stalled says nothing
  // about the cheap per-node probes.
  consecutive_stalls_ = 0;
  return certified;
}

EffortCounters ConfigLpBounder::effort() const {
  EffortCounters out;
  if (master_) out = master_->effort();
  out.cg_fallbacks = fallbacks_;
  return out;
}

}  // namespace setsched::exact
