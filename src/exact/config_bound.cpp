#include "exact/config_bound.h"

#include <algorithm>
#include <cmath>

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
    : inst_(instance), opt_(options) {
  if (T_build <= 0.0 || opt_.grid == 0) return;
  const std::size_t n = inst_.num_jobs();
  slack_ = static_cast<double>(n + inst_.num_classes()) /
           static_cast<double>(opt_.grid);
  if (slack_ >= kCgMaxGridSlack) return;  // grid too coarse to say anything

  lp::SimplexOptions simplex = opt_.simplex;
  simplex.guard = true;  // every prune verdict must survive the audit
  master_.emplace(n, inst_.num_machines(), simplex);
  pinned_.assign(n, kUnassigned);
}

bool ConfigLpBounder::conflicts(const PoolColumn& c, JobId j,
                                MachineId i) const {
  const bool contains =
      std::binary_search(c.jobs.begin(), c.jobs.end(), j);
  // A machine-i column must contain every job pinned to i; any other
  // machine's column must not contain it.
  return c.machine == i ? !contains : contains;
}

void ConfigLpBounder::sync_bounds(const PoolColumn& c) {
  master_->set_enabled(c.z, c.pin_blocks == 0 && !c.load_blocked);
}

void ConfigLpBounder::pin(JobId j, MachineId i) {
  if (!master_) return;
  pinned_[j] = i;
  for (PoolColumn& c : pool_) {
    if (!conflicts(c, j, i)) continue;
    if (++c.pin_blocks == 1 && !c.load_blocked) sync_bounds(c);
  }
}

void ConfigLpBounder::unpin(JobId j) {
  if (!master_) return;
  const MachineId i = pinned_[j];
  pinned_[j] = kUnassigned;
  if (i == kUnassigned) return;
  for (PoolColumn& c : pool_) {
    if (!conflicts(c, j, i)) continue;
    if (--c.pin_blocks == 0 && !c.load_blocked) sync_bounds(c);
  }
}

void ConfigLpBounder::retune(double t_eff) {
  current_T_ = t_eff;
  for (PoolColumn& c : pool_) {
    const bool blocked = c.load > t_eff;
    if (blocked == c.load_blocked) continue;
    c.load_blocked = blocked;
    if (c.pin_blocks == 0) sync_bounds(c);
  }
}

void ConfigLpBounder::add_column(MachineId i, std::vector<JobId> jobs) {
  std::sort(jobs.begin(), jobs.end());
  PoolColumn c;
  c.machine = i;
  c.jobs = std::move(jobs);
  std::vector<char> touched(inst_.num_classes(), 0);
  for (const JobId j : c.jobs) {
    c.load += inst_.proc(i, j);
    touched[inst_.job_class(j)] = 1;
  }
  for (ClassId k = 0; k < inst_.num_classes(); ++k) {
    if (touched[k]) c.load += inst_.setup(i, k);
  }
  c.z = master_->add_column(i, c.jobs);
  // The pricer only emits pin-consistent columns that truly fit the current
  // probe T (weights are rounded up), so a fresh column starts enabled.
  c.pin_blocks = 0;
  c.load_blocked = c.load > current_T_;
  if (c.load_blocked) sync_bounds(c);
  pool_.push_back(std::move(c));
}

ConfigLpBounder::Probe ConfigLpBounder::probe(double t_eff,
                                              std::size_t max_rounds) {
  const std::size_t n = inst_.num_jobs();
  const std::size_t m = inst_.num_machines();
  const double coverage_target = static_cast<double>(n) - kConfigLpPricingTol;
  // The prune certificate needs headroom for pricing's per-machine dual
  // tolerance (see kCgCoverageSlackPerRow).
  const double prune_below = static_cast<double>(n) -
                             static_cast<double>(m + 1) *
                                 kCgCoverageSlackPerRow;
  last_probe_rounds_ = 0;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    ++last_probe_rounds_;
    ++pricing_rounds_;

    const lp::Solution& sol = master_->solve();
    if (!sol.optimal() || sol.audit_contested()) return Probe::kContested;
    if (sol.objective >= coverage_target) return Probe::kFeasible;
    master_->update_duals();

    bool added = false;
    for (MachineId i = 0; i < m; ++i) {
      PricedConfig priced =
          price_machine_config(inst_, i, t_eff, master_->job_duals(),
                               opt_.grid, kConfigLpPricingTol, &pinned_);
      // The jobs pinned to machine i alone overflow the grid: their true
      // load exceeds the probe T in every completion (grid conservatism).
      if (!priced.pins_fit) return Probe::kInfeasible;
      if (priced.jobs.empty()) continue;
      if (priced.value <= master_->machine_duals()[i] + kConfigLpPricingTol) {
        continue;
      }
      add_column(i, std::move(priced.jobs));
      added = true;
    }
    if (!added) {
      // Exhaustive pricing: the duals are feasible for the full
      // pin-consistent master, so its optimum is bounded by the RMP's.
      return sol.objective < prune_below ? Probe::kInfeasible
                                         : Probe::kFeasible;
    }
  }
  return Probe::kStall;
}

bool ConfigLpBounder::probe_verdict(double T, std::size_t max_rounds) {
  if (!master_ || T <= 0.0) return true;  // no bounder, no pruning
  ++probes_;
  const double t_eff = T / (1.0 - slack_);
  if (t_eff != current_T_) retune(t_eff);
  switch (probe(t_eff, max_rounds)) {
    case Probe::kFeasible:
      consecutive_stalls_ = 0;
      return true;
    case Probe::kInfeasible:
      consecutive_stalls_ = 0;
      return false;
    case Probe::kStall:
      ++consecutive_stalls_;
      ++fallbacks_;
      return true;
    case Probe::kContested:
      ++fallbacks_;
      return true;
  }
  return true;  // unreachable
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
    if (ceiling - certified <=
        kCgRootGapRelTol * std::max(1.0, certified)) {
      break;
    }
    if (opt_.deadline &&
        std::chrono::steady_clock::now() > *opt_.deadline) {
      break;  // out of wall clock; keep what is certified so far
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
  if (master_) out = master_->session().effort();
  out.cg_columns = pool_.size();
  out.cg_pricing_rounds = pricing_rounds_;
  out.cg_fallbacks = fallbacks_;
  return out;
}

bool ConfigLpBounder::check_invariants() const {
  if (!master_) return true;
  const lp::Session& session = master_->session();
  const lp::Model& rmp = session.model();
  for (const PoolColumn& c : pool_) {
    int blocks = 0;
    for (JobId j = 0; j < inst_.num_jobs(); ++j) {
      if (pinned_[j] == kUnassigned) continue;
      if (conflicts(c, j, pinned_[j])) ++blocks;
    }
    if (blocks != c.pin_blocks) return false;
    const bool disabled = c.pin_blocks > 0 || c.load_blocked;
    if (rmp.upper(c.z) != (disabled ? 0.0 : 1.0)) return false;
    if (c.z >= rmp.num_variables()) return false;
  }
  // Columns are append-only, so a warm basis carried across backtracking may
  // never reference more structurals than the model holds.
  if (session.basis().structurals.size() > rmp.num_variables()) return false;
  if (session.basis().logicals.size() > rmp.num_constraints()) return false;
  return true;
}

}  // namespace setsched::exact
