#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <vector>

#include "colgen/config_lp.h"
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

/// Configuration-LP bounds for the branch-and-bound: branch-and-price. The
/// restricted master (colgen/coverage_master.h) is built ONCE and only ever
/// grows; every probe warm-starts from the previous node's basis on the
/// master's lp::Session, exactly like the T-search warm chain, and pricing at a node is restricted to configurations consistent
/// with the node's partial schedule (price_machine_config pins). The column
/// pool and basis survive backtracking: columns are never erased — a column
/// inconsistent with the current pins (or too loaded for the current probe
/// T) is disabled by forcing its bounds to [0, 0], so basis indices stay
/// stable and unpinning re-enables exactly what pinning disabled.
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
///     weaken prunes but never corrupt them; disabling them is purely a
///     bound-quality measure.
/// Contested (guard-audited) or non-optimal RMP solves demote the probe to
/// "no bound" — the node is searched, never pruned on corrupted numerics.
class ConfigLpBounder {
 public:
  /// Builds the empty RMP at probe bound `T_build` (<= 0 disables the
  /// bounder, as does a grid too coarse for the instance size).
  ConfigLpBounder(const Instance& instance, double T_build,
                  const ConfigBoundOptions& options);

  [[nodiscard]] bool available() const noexcept { return master_.has_value(); }

  /// Pin/unpin the branching decision "job j runs on machine i". Pool
  /// columns conflicting with the pin (machine-i columns missing j, other
  /// machines' columns containing j) are disabled while it is active.
  /// Columns priced under an active pin are consistent with it by
  /// construction, so unpin() re-enables exactly the set pin() disabled.
  void pin(JobId j, MachineId i);
  void unpin(JobId j);

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

  // --- effort counters (SolverStats cg_* trio + internals) -----------------
  /// Everything the bounder spent: the RMP session's lp_solves (one per
  /// pricing round), lp_iterations, lp_dual_solves and guard counters, plus
  /// cg_columns, cg_pricing_rounds and cg_fallbacks.
  [[nodiscard]] EffortCounters effort() const;
  /// Configuration columns priced into the RMP (pool size; append-only).
  [[nodiscard]] std::size_t columns() const noexcept { return pool_.size(); }
  /// Probes demoted to "no bound": contested/non-optimal RMP solves plus
  /// round-limit stalls. The caller's auto-mode demotion adds to this.
  [[nodiscard]] std::size_t fallbacks() const noexcept { return fallbacks_; }
  /// feasible() calls (root bisection + node probes).
  [[nodiscard]] std::size_t probes() const noexcept { return probes_; }
  /// Pricing rounds of the most recent feasible() call (warm-start
  /// regression hook: a child probe resuming the parent's pool/basis must
  /// beat a cold bounder's rebuild).
  [[nodiscard]] std::size_t last_probe_rounds() const noexcept {
    return last_probe_rounds_;
  }
  /// Consecutive round-limit stalls (auto-mode demotion signal; reset by any
  /// probe that terminates properly).
  [[nodiscard]] std::size_t consecutive_stalls() const noexcept {
    return consecutive_stalls_;
  }

  /// Test hook: verifies the pool/RMP invariants — every column's recorded
  /// pin-block count matches a recount against the live pins, disabled
  /// bounds agree with (pin_blocks, load_blocked), and the warm basis never
  /// references a variable the model does not hold (columns are append-only,
  /// so backtracking can never strand a basic column).
  [[nodiscard]] bool check_invariants() const;

 private:
  struct PoolColumn {
    MachineId machine = 0;
    std::vector<JobId> jobs;  ///< sorted
    double load = 0.0;        ///< true load: Σ proc + touched-class setups
    std::size_t z = 0;        ///< RMP variable index (stable forever)
    int pin_blocks = 0;       ///< active pins this column conflicts with
    bool load_blocked = false;  ///< true load exceeds the current probe T
  };

  enum class Probe { kFeasible, kInfeasible, kStall, kContested };

  [[nodiscard]] bool conflicts(const PoolColumn& c, JobId j,
                               MachineId i) const;
  void sync_bounds(const PoolColumn& c);
  void retune(double t_eff);
  void add_column(MachineId i, std::vector<JobId> jobs);
  [[nodiscard]] Probe probe(double t_eff, std::size_t max_rounds);
  /// feasible() with an explicit per-probe round budget (root probes get
  /// kRootRounds, node probes opt_.rounds_per_node).
  [[nodiscard]] bool probe_verdict(double T, std::size_t max_rounds);

  const Instance& inst_;
  ConfigBoundOptions opt_;
  /// Conservative grid inflation (n + classes) / grid; probes at T price at
  /// T / (1 - slack_).
  double slack_ = 0.0;
  double current_T_ = -1.0;  ///< T_eff the pool's load-blocking is tuned to

  /// The RMP; empty when the bounder is unavailable.
  std::optional<CoverageMaster> master_;
  std::vector<PoolColumn> pool_;
  std::vector<MachineId> pinned_;

  std::size_t pricing_rounds_ = 0;
  std::size_t fallbacks_ = 0;
  std::size_t probes_ = 0;
  std::size_t last_probe_rounds_ = 0;
  std::size_t consecutive_stalls_ = 0;
};

}  // namespace setsched::exact
