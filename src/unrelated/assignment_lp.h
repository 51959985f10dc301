#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "core/counters.h"
#include "core/instance.h"
#include "lp/session.h"

namespace setsched {

/// Fractional solution of the assignment LP (the linear relaxation of
/// ILP-UM, Sec. 3): x(i,j) = fraction of job j on machine i, y(i,k) =
/// fractional setup of class k on machine i. Satisfies
///   (1)  Σ_j x_ij p_ij + Σ_k y_ik s_ik <= T          per machine,
///   (2)  Σ_i x_ij  = 1                               per job,
///   (4)  y_i,k(j) >= x_ij                            per (i, j),
///   (5)  x_ij = 0 when p_ij > T or j ineligible on i.
struct FractionalAssignment {
  Matrix<double> x;  ///< m x n
  Matrix<double> y;  ///< m x K
};

struct AssignmentLpOptions {
  /// Replace the setup-mass objective with an explicit makespan variable:
  /// minimize T_var subject to load_i - T_var <= 0 per machine, with the
  /// T-dependent eligibility filters still applied as variable bounds. The
  /// LP optimum is then the fractional makespan itself — a certified lower
  /// bound the exact branch-and-bound prunes and reduced-cost-fixes against
  /// (min_makespan() / fix_dominated()). Every cost is >= 0, so any basis is
  /// dual-feasible and the dual simplex solves these end to end.
  bool makespan_objective = false;
  /// Residual-audit cadence of the numerical safety net (lp/guard.h): every
  /// `audit_interval`-th solve of the warm-probe chain runs under the
  /// lp::solve guard — post-solve residual audit plus the recovery
  /// escalation ladder on suspicion. 1 audits every solve (what the exact
  /// bounder uses: its prune/fix decisions must never rest on an unaudited
  /// solve), N > 1 samples the chain, 0 disables the guard entirely (the
  /// zero-overhead default for the approximation pipelines, which only
  /// consume feasibility windows and tolerate a bad probe).
  std::size_t audit_interval = 0;
  lp::SimplexOptions simplex = {};
};

/// The relaxation of ILP-UM built ONCE at its loosest makespan guess and
/// re-parameterized in place for every subsequent probe: the T-dependent
/// eligibility filter (5) becomes a variable upper bound (0 when a pair is
/// filtered at the probe's T), and T itself appears only in the machine
/// load rhs (1). Because the column layout never changes, each solve
/// warm-starts the revised simplex from the previous probe's basis — this
/// is what turns the geometric T-search from a chain of cold phase-1 solves
/// into a chain of short re-optimizations.
class ParametricAssignmentLp {
 public:
  /// Builds the relaxation at guess `T_build`. Probes must satisfy
  /// T <= T_build (the variable set is the one admissible at T_build).
  ParametricAssignmentLp(const Instance& instance, double T_build,
                         const AssignmentLpOptions& options = {});

  /// Re-parameterizes the model to T and solves, warm-starting from the
  /// basis of the previous call (feasible or not). Returns std::nullopt iff
  /// the LP is infeasible at T.
  [[nodiscard]] std::optional<FractionalAssignment> solve(double T);

  /// Feasibility-only probe at T (no solution extraction): true iff a
  /// fractional assignment of makespan <= T exists that respects the pins
  /// below. This is the branch-and-bound node relaxation of src/exact: one
  /// model re-parameterized down the search tree, every probe warm-started
  /// from the previous basis.
  [[nodiscard]] bool feasible(double T);

  /// Pins job j to machine i for subsequent solves: x_ij is fixed to 1 and
  /// x_i'j to 0 for every other machine. Pinning a pair whose variable was
  /// filtered at T_build makes every later probe infeasible (the pinned pair
  /// cannot meet any T <= T_build). Pins survive re-parameterization.
  void pin_job(JobId j, MachineId i);

  /// Removes the pin on job j (no-op when j is not pinned).
  void unpin_job(JobId j);

  // --- makespan-objective mode (options.makespan_objective) ---------------

  /// Minimum fractional makespan of the completions respecting the current
  /// pins and fixes, with the eligibility filters applied at T_filter.
  /// std::nullopt iff no completion exists at all (impossible pins). Valid
  /// for bounding integral completions of makespan <= T_filter.
  [[nodiscard]] std::optional<double> min_makespan(double T_filter);

  /// Reduced-cost fixing against the last min_makespan() solve: every free
  /// pair (j, i) whose LP reduced cost certifies that any completion placing
  /// j on i has makespan >= cutoff is fixed to x_ij = 0 (appended to *out
  /// for later unfixing). Returns the number of pairs fixed. Sound because
  /// the bounded-simplex sensitivity bound obj(x_ij = 1) >= value + d_ij
  /// holds for nonbasic-at-lower columns.
  std::size_t fix_dominated(double cutoff,
                            std::vector<std::pair<JobId, MachineId>>* out);

  /// Clears fixes out[from..] and shrinks *out back to `from` (the undo of
  /// the fix_dominated calls made since *out had size `from`).
  void unfix(std::vector<std::pair<JobId, MachineId>>* out, std::size_t from);

  /// Snapshots the last min_makespan() solve — objective value plus the
  /// per-variable sensitivity bound `value + reduced_cost` of every
  /// nonbasic-at-lower column — as the ROOT relaxation. Must be called with
  /// no pins set (the bound is a fact about the unpinned LP, valid at every
  /// later, tighter cutoff). Returns false and stores nothing when the last
  /// solve was not optimal.
  bool save_root_snapshot();

  /// Incremental root fixing: re-applies the saved root snapshot at a
  /// (tighter) cutoff, fixing every pair whose root sensitivity bound
  /// certifies that any completion using it has makespan >= cutoff. Root
  /// fixes are PERMANENT — they carry no undo entry and stack with
  /// subtree-scoped fix_dominated() fixes, so a pair fixed by both stays
  /// fixed when the subtree scope unwinds. Each pair is root-fixed at most
  /// once. Returns the number of pairs newly fixed (0 without a snapshot).
  std::size_t refix_root(double cutoff);

  /// True iff the pair is currently reduced-cost-fixed to 0.
  [[nodiscard]] bool pair_fixed(JobId j, MachineId i) const {
    return fixed_zero_(i, j) != 0;
  }

  /// Work of the chain so far: lp_solves (every probe, including the ones
  /// impossible pins settle without the simplex), lp_iterations,
  /// lp_dual_solves, and the guard counters (guarded solves whose audit was
  /// contested — each solve's ladder can contest more than once — and how
  /// they were recovered).
  [[nodiscard]] const EffortCounters& effort() const noexcept {
    return session_.effort();
  }
  /// The warm chain itself; session().last() is the most recent probe (its
  /// iterations, via_dual and audit verdict — kSkipped when the guard did
  /// not run, so only kSuspect/kFailed mark the answer as unusable).
  [[nodiscard]] const lp::Session& session() const noexcept {
    return session_;
  }

 private:
  void reparameterize(double T);
  /// Fills reduced_scratch_ with the reduced costs of the last solve.
  void compute_reduced_costs();
  /// Shared solve path: re-parameterizes and solves on the session. Returns
  /// the solution (status kInfeasible on infeasible probes and on pins whose
  /// variable does not exist in the model).
  const lp::Solution& run_solve(double T);

  const Instance* instance_;
  AssignmentLpOptions options_;
  double T_build_;
  /// True when the model could not be built at T_build (a job fits nowhere);
  /// every probe at T <= T_build is then infeasible a fortiori.
  bool structurally_infeasible_ = false;
  /// The model and its warm chain across probes.
  lp::Session session_;
  Matrix<std::size_t> xv_;              ///< m x n variable ids (SIZE_MAX = none)
  Matrix<std::size_t> yv_;              ///< m x K variable ids
  std::size_t tvar_ = SIZE_MAX;         ///< makespan column (makespan mode)
  std::vector<std::size_t> load_row_;   ///< per machine (SIZE_MAX = none)
  std::vector<MachineId> pinned_;       ///< per job; kUnassigned = free
  /// m x n reduced-cost fix COUNTS (0 = free): a pair can be held at zero by
  /// a subtree-scoped fix_dominated() fix and a permanent refix_root() fix
  /// at once; unfixing the subtree scope must not free a root-fixed pair.
  Matrix<char> fixed_zero_;
  /// m x n pairs already fixed by refix_root() (each at most once, ever).
  Matrix<char> root_fixed_;
  /// Root snapshot for refix_root(): per-variable sensitivity bound
  /// `root value + reduced cost` (-inf for basic/at-upper columns, which
  /// carry no bound). Empty until save_root_snapshot().
  std::vector<double> root_bound_;
  /// Pins pointing at variables absent from the model (filtered at T_build):
  /// every probe is infeasible while > 0.
  std::size_t impossible_pins_ = 0;
  /// Reduced-cost scratch for fix_dominated (hot on B&B node probes).
  std::vector<double> reduced_scratch_;
};

/// Solves the relaxation of ILP-UM for makespan guess T. Among feasible
/// solutions, one minimizing Σ y_ik is returned (y as tight as possible
/// against constraint (4), which only helps the rounding probabilities).
/// Returns std::nullopt iff the LP is infeasible, i.e. no schedule of
/// makespan <= T exists even fractionally.
[[nodiscard]] std::optional<FractionalAssignment> solve_assignment_lp(
    const Instance& instance, double T, const AssignmentLpOptions& options = {});

/// Largest T that is trivially LP-infeasible:
/// max( max_j min_i p_ij , (Σ_j min_i p_ij) / m ). LP(T) feasible => T >= this.
[[nodiscard]] double assignment_lp_floor(const Instance& instance);

/// Finds (by geometric binary search) a window [lo, hi] with hi/lo <= 1+prec
/// where LP(hi) is feasible and lo is LP-infeasible or a combinatorial bound
/// (the search starts from max(assignment_lp_floor, unrelated_lower_bound));
/// returns the fractional solution at hi. `lo` is a valid lower bound on OPT
/// (though the plain LP relaxation may already be feasible below the
/// setup-aware combinatorial seed). The model is built once at the initial
/// `hi` and every probe warm-starts from the previous basis; the `hi` solve
/// runs first so it seeds the chain and doubles as the returned solution
/// when no tighter probe succeeds. The effort counters sum every probe (the
/// guard counters stay 0 unless AssignmentLpOptions::audit_interval > 0).
struct LpSearchResult : EffortCounters {
  double feasible_T = 0.0;    ///< hi: LP feasible here (solution below)
  double lower_bound = 0.0;   ///< lo: OPT is >= this
  FractionalAssignment fractional;
};
[[nodiscard]] LpSearchResult search_assignment_lp(
    const Instance& instance, double precision = 0.05,
    const AssignmentLpOptions& options = {});

}  // namespace setsched
