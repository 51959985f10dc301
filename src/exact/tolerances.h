#pragma once

/// Named numerical tolerances of the exact search (src/exact). These are the
/// searchers' counterpart of SimplexOptions' named derived tolerances
/// (lp/simplex.h): every slack that decides pruning, dominance, or
/// certification lives here under a name stating what it protects, and
/// tools/lint_invariants.py rejects new raw `1eN` literals in src/exact so
/// the contract cannot silently re-scatter.
///
/// Values are deliberately asymmetric with the LP tolerances: search
/// comparisons operate on makespans evaluated by exact summation (not on
/// simplex output), so the slacks only have to absorb double-rounding of
/// sums, never a whole solve's accumulated error.
// lint: allow-tolerance-file (named-tolerance definition site)

#include <cstddef>

namespace setsched::exact {

/// Pointwise machine-load slack of the dominance test (exact::dominates,
/// used by the beam's prefilter and the per-depth memo): a kept state's load
/// may exceed the candidate's by this much and still count as <=. Absolute,
/// not relative — loads are sums of O(n) doubles, whose representation error
/// is far below this at every benchmarked scale.
inline constexpr double kDominanceLoadSlack = 1e-12;

/// Incumbent pruning cutoff: branches whose bound reaches
/// incumbent - kIncumbentPruneSlack are dropped. Ties with the incumbent are
/// no improvement, so the cutoff sits a hair *below* the incumbent; the
/// slack only separates genuine ties from double-rounding.
inline constexpr double kIncumbentPruneSlack = 1e-12;

/// Relative certification tolerance: an incumbent within
/// kCertRelTol * max(1, lower_bound) of the lower bound is certified optimal
/// (and the lb-meets-incumbent early exit fires). Matches the harness's
/// makespan-agreement tolerance so a certified optimum always revalidates.
inline constexpr double kCertRelTol = 1e-9;

/// Floor on the denominator of the reported relative gap
/// (makespan - lb) / max(lb, kGapDenominatorFloor), keeping the gap finite
/// on degenerate instances whose lower bound is 0.
inline constexpr double kGapDenominatorFloor = 1e-9;

/// Prune threshold of the assignment-LP bounder (exact/lp_bound.h): a node
/// whose minimum fractional makespan exceeds
/// T * (1 + kLpPruneRelSlack) + kLpPruneAbsSlack is pruned against the
/// cutoff T. The slack keeps a relaxation that meets T up to the simplex's
/// roundoff from pruning a subtree that holds a schedule of makespan T.
inline constexpr double kLpPruneRelSlack = 1e-9;
inline constexpr double kLpPruneAbsSlack = 1e-9;

/// Relative margin of reduced-cost fixing (LpBounder::fix_dominated and
/// refix_root): a pair is fixed to 0 only when its sensitivity bound
/// value + d_ij reaches cutoff + kFixMarginRel * max(1, |cutoff|), so a
/// bound that meets the cutoff only up to the LP's roundoff never excludes
/// a pair an improving completion may use.
inline constexpr double kFixMarginRel = 1e-7;

/// A column whose LP value exceeds kAtLowerTol is off its lower bound: it
/// carries no sensitivity bound, so fixing and the root snapshot skip it.
inline constexpr double kAtLowerTol = 1e-9;

/// Coverage slack of the config-LP prune certificate: pricing tolerates a
/// dual-feasibility violation of up to kConfigLpPricingTol
/// (colgen/config_lp.h) per machine row, so "no improving column" only
/// certifies that the full pin-consistent master stays below RMP coverage +
/// (m+1)·kConfigLpPricingTol. A prune therefore requires coverage < n -
/// (m+1)·kConfigLpPricingTol; the matching feasible verdict fires at
/// coverage >= n - kConfigLpPricingTol (the colgen convention),
/// and the ambiguous sliver in between is treated as feasible (no prune).
inline constexpr double kCgCoverageSlackPerRow = 1e-6;

/// Relative termination width of the config-LP root bisection: probing
/// stops once hi - lo <= kCgRootGapRelTol * max(1, lo). The bound is a
/// bisection over sound infeasibility certificates, so a loose width only
/// weakens the reported bound, never its validity.
inline constexpr double kCgRootGapRelTol = 1e-3;

/// Maximum grid-inflation slack (n + classes) / grid the config bounder
/// accepts; above this the conservative probe T_eff = T / (1 - slack) is so
/// inflated the bound is useless and the bounder reports unavailable.
inline constexpr double kCgMaxGridSlack = 0.5;

/// BoundMode::kAuto demotion trigger: this many CONSECUTIVE round-limit
/// stalls of the config-LP node probe and the search permanently falls back
/// to the assignment bound (counted in cg_fallbacks).
inline constexpr std::size_t kCgAutoStallLimit = 3;

}  // namespace setsched::exact
