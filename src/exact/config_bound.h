#pragma once

#include <chrono>
#include <cstddef>
#include <optional>

#include "colgen/coverage_master.h"
#include "core/counters.h"
#include "core/instance.h"
#include "lp/simplex.h"

namespace setsched::exact {

/// Knobs of the configuration-LP bounder.
struct ConfigBoundOptions {
  /// Pricing grid resolution (the T-search colgen prices on 2048 buckets
  /// too, kConfigLpGrid in colgen/config_lp.cpp). The conservative probe
  /// inflation is (n + classes) / grid, so the grid must comfortably exceed
  /// the instance size (see kCgMaxGridSlack).
  std::size_t grid = 2048;
  /// Pricing rounds per node probe before declaring a stall (the probe then
  /// demotes to "no bound" and the caller falls back to the assignment LP).
  std::size_t rounds_per_node = 6;  // lint: allow-knob (tests force stalls)
  /// Optional wall-clock cutoff for the root bisection: probes stop once the
  /// deadline passes (the bound certified so far is kept). Node probes are
  /// not checked — they are budgeted by rounds_per_node.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Simplex knobs for the RMP solves (guard is always forced on: every
  /// verdict the search prunes on must survive a residual audit).
  lp::SimplexOptions simplex;
};

/// Configuration-LP bounds for the branch-and-bound: branch-and-price. All
/// probes run on one CoverageMaster (colgen/coverage_master.h), whose pool
/// and warm basis survive backtracking; pricing at a node is restricted to
/// configurations consistent with its partial schedule (pins). The bounder
/// adds the grid inflation of the probe T, the verdicts and the root bisection.
///
/// Soundness of every prune rests on two certificates:
///   * Grid conservatism: probes at T run the pricer at
///     T_eff = T / (1 - (n + classes)/grid), so ANY configuration whose true
///     load is <= T has rounded weight <= grid at T_eff's unit — the
///     integral schedule's own columns are always priceable.
///   * LP weak duality: when exhaustive pricing finds no improving
///     pin-consistent column, the RMP duals are (within tolerance) feasible
///     for the full pin-consistent master, so RMP coverage below n certifies
///     the master below n — no fractional (hence no integral) completion of
///     the pinned partial schedule fits in T. Extra pool columns (priced at
///     looser T or under other pins) can only RAISE the RMP optimum, so they
///     weaken prunes but never corrupt them; disabling the ones whose true
///     load exceeds T_eff (ColumnFit::kTrueLoad) is purely a bound-quality
///     measure.
/// Contested (guard-audited) or non-optimal RMP solves demote the probe to
/// "no bound" — the node is searched, never pruned on corrupted numerics.
class ConfigLpBounder {
 public:
  /// Builds the empty RMP at probe bound `T_build` (<= 0 disables the
  /// bounder, as does a grid too coarse for the instance size).
  ConfigLpBounder(const Instance& instance, double T_build,
                  const ConfigBoundOptions& options);

  [[nodiscard]] bool available() const noexcept { return master_.has_value(); }

  /// Pin/unpin the branching decision "job j runs on machine i".
  void pin(JobId j, MachineId i) { if (master_) master_->pin(j, i); }
  void unpin(JobId j) { if (master_) master_->unpin(j); }

  /// True iff a fractional configuration-LP completion respecting the pins
  /// with makespan <= T may exist (or the bounder is unavailable / the probe
  /// was demoted). False CERTIFIES no completion of the pinned partial
  /// schedule has makespan <= T — a sound prune against a cutoff of T.
  [[nodiscard]] bool feasible(double T);

  /// Certified lower bound on OPT from the (unpinned) relaxation: bisects
  /// [lo, hi] on feasible(), climbing `lo` over every certified-infeasible
  /// midpoint. Call before any pins are set; `lo` must itself be a valid
  /// bound (it is returned unimproved when no probe certifies more). At
  /// most 12 probes of max(80, rounds_per_node) pricing rounds each
  /// (kRootProbes, kRootRounds in config_bound.cpp).
  [[nodiscard]] double root_lower_bound(double lo, double hi);

  /// The master's effort (CoverageMaster::effort) plus cg_fallbacks.
  [[nodiscard]] EffortCounters effort() const;
  /// Configuration columns priced into the RMP (pool size; append-only).
  [[nodiscard]] std::size_t columns() const noexcept {
    return master_ ? master_->size() : 0;
  }
  /// Probes demoted to "no bound": contested/non-optimal RMP solves plus
  /// round-limit stalls. The caller's auto-mode demotion adds to this.
  [[nodiscard]] std::size_t fallbacks() const noexcept { return fallbacks_; }
  /// feasible() calls (root bisection + node probes).
  [[nodiscard]] std::size_t probes() const noexcept { return probes_; }
  /// Pricing rounds of the most recent feasible() call (warm-start
  /// regression hook: a child probe resuming the parent's pool/basis must
  /// beat a cold bounder's rebuild).
  [[nodiscard]] std::size_t last_probe_rounds() const noexcept {
    return master_ ? master_->last_probe_rounds() : 0;
  }
  /// Consecutive round-limit stalls (auto-mode demotion signal; reset by any
  /// probe that terminates properly).
  [[nodiscard]] std::size_t consecutive_stalls() const noexcept {
    return consecutive_stalls_;
  }

  /// Test hook: CoverageMaster::check_invariants.
  [[nodiscard]] bool check_invariants() const {
    return !master_ || master_->check_invariants();
  }

 private:
  /// feasible() with an explicit per-probe round budget (root probes get
  /// kRootRounds, node probes opt_.rounds_per_node).
  [[nodiscard]] bool probe_verdict(double T, std::size_t max_rounds);

  ConfigBoundOptions opt_;
  /// Conservative grid inflation (n + classes) / grid; probes at T price at
  /// T / (1 - slack_).
  double slack_ = 0.0;
  /// Converged coverage below this certifies a prune.
  double prune_below_ = 0.0;

  std::optional<CoverageMaster> master_;  ///< empty when unavailable

  std::size_t fallbacks_ = 0;
  std::size_t probes_ = 0;
  std::size_t consecutive_stalls_ = 0;
};

}  // namespace setsched::exact
