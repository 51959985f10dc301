#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/counters.h"
#include "lp/model.h"

namespace setsched::lp {

struct FaultPlan;  // lp/fault.h — deterministic fault-injection plan
namespace internal {
class RevisedSolver;  // lp/revised_impl.h
}  // namespace internal

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

/// Verdict of the post-solve residual audit (lp/guard.h): kClean when every
/// check passed within tolerance, kSuspect on a tolerance-scale violation,
/// kFailed on a gross violation or a non-finite value. kSkipped when the
/// solve ran unguarded or its status leaves nothing auditable.
enum class AuditVerdict : std::uint8_t { kSkipped, kClean, kSuspect, kFailed };

[[nodiscard]] std::string_view audit_verdict_name(AuditVerdict verdict);

/// Status of one column (structural or logical) in a simplex basis.
enum class VarStatus : std::uint8_t { kAtLower, kAtUpper, kBasic };

/// Snapshot of a simplex basis: one status per structural column plus one per
/// row (the row's logical/slack column). Returned in Solution by the revised
/// solver and accepted back through SimplexOptions::warm_start, so closely
/// related solves (the assignment-LP T-search, column-generation rounds) can
/// skip phase 1 instead of re-deriving a basis from scratch. A basis stays
/// meaningful across re-parameterizations of the *same* model (rhs and
/// bounds) and across appended columns (new columns default to
/// nonbasic-at-lower); it is not transferable between unrelated models.
struct Basis {
  std::vector<VarStatus> structurals;
  std::vector<VarStatus> logicals;  ///< one per constraint row

  [[nodiscard]] bool empty() const noexcept {
    return structurals.empty() && logicals.empty();
  }
};

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  /// Primal values for the model's variables (empty unless kOptimal).
  std::vector<double> x;
  /// Row duals y, in the convention  reduced_cost_j = c_j - y^T A_j  for the
  /// model's *original* objective sense. For a kMinimize model: y_r <= 0 for
  /// binding <= rows; for kMaximize: y_r >= 0 for binding <= rows.
  std::vector<double> duals;
  /// True for variables that ended basic (useful to inspect the extreme
  /// point structure; at most num_constraints variables are basic).
  std::vector<bool> basic;
  /// Final basis snapshot for warm starting subsequent solves. Populated by
  /// the revised solver on kOptimal and kInfeasible (an infeasible probe's
  /// basis is still a good seed for the next probe of a T-search); empty
  /// from the tableau solver.
  Basis basis;
  std::size_t iterations = 0;
  /// LU factorizations of the revised solver (the one on entry, then one
  /// per refactorization trigger), and their off-diagonal L and U entries
  /// summed over those factorizations. 0 from the tableau.
  std::size_t factorizations = 0;
  std::size_t lu_nnz = 0;
  /// True when the dual simplex drove this solve to its terminal state
  /// (optimal or infeasible) — i.e. the solve was a dual re-optimization of
  /// a warm basis or an explicit kDual run. Deliberately false when the
  /// dual loop started but bailed into the primal phase 1 (numerics): the
  /// end basis is then a primal artifact, and consumers rely on via_dual
  /// both for the lp_dual_solves effort counters and to decide that the end
  /// basis of an *infeasible* probe is still a dual-feasible warm-start
  /// seed.
  bool via_dual = false;
  /// Post-solve residual-audit verdict; kSkipped when options.guard was off.
  /// A guarded solve that escalated reports the verdict of whatever rung of
  /// the recovery ladder produced the returned answer.
  AuditVerdict audit_verdict = AuditVerdict::kSkipped;
  /// Guard-ladder counters for this solve: non-clean audits observed,
  /// successful warm/cold re-solve recoveries, and escalations to the dense
  /// tableau oracle. All zero when unguarded.
  std::size_t audits_suspect = 0;
  std::size_t recoveries = 0;
  std::size_t oracle_fallbacks = 0;
  /// Faults the injection framework actually fired during this solve
  /// (lp/fault.h); diagnostics for tests, not serialized.
  std::size_t faults_injected = 0;

  [[nodiscard]] bool optimal() const noexcept {
    return status == SolveStatus::kOptimal;
  }
  /// True when the audit did not contest the solve: clean, or unaudited.
  /// Soundness-critical consumers (search pruning, reduced-cost fixing)
  /// additionally require audit_verdict == kClean before acting.
  [[nodiscard]] bool audit_contested() const noexcept {
    return audit_verdict == AuditVerdict::kSuspect ||
           audit_verdict == AuditVerdict::kFailed;
  }
  /// Adds this solve's iterations, factorization work and guard-ladder
  /// counters to a solver's effort (lp_solves and lp_dual_solves are the
  /// caller's: a chain counts solves it settled without the simplex).
  void add_counters(EffortCounters& effort) const noexcept {
    effort.lp_iterations += iterations;
    effort.lp_factorizations += factorizations;
    effort.lp_lu_nnz += lu_nnz;
    effort.lp_audits_suspect += audits_suspect;
    effort.lp_recoveries += recoveries;
    effort.lp_oracle_fallbacks += oracle_fallbacks;
  }
};

/// Which simplex implementation solve() runs.
enum class SimplexAlgorithm : std::uint8_t {
  /// Revised solver, unless audit mode is requested (audit instruments the
  /// dense tableau, which then acts as the reference oracle). The revised
  /// solver itself picks dual re-optimization whenever a warm basis is
  /// primal-infeasible but dual-feasible (the state a warm basis is in
  /// right after an rhs/bound re-parameterization).
  kAuto,
  /// Dense bounded-variable two-phase tableau (reference implementation).
  kTableau,
  /// Revised solver, but prefer the dual simplex: run the dual loop whenever
  /// the starting basis is dual-feasible (even without primal
  /// infeasibility), falling back to the composite primal phase 1 when it is
  /// not. The min-makespan node relaxations of src/exact start dual-feasible
  /// from any basis (all costs >= 0), so kDual solves them without a single
  /// primal phase-1 pivot.
  kDual,
};

struct SimplexOptions {
  /// Feasibility tolerance on variable values / rhs.
  // lint: allow-knob (LP kernel tuning)
  double feas_tol = 1e-7;  // lint: allow-tolerance (primary definition)
  /// Optimality tolerance on reduced costs.
  // lint: allow-knob (LP kernel tuning)
  double opt_tol = 1e-9;  // lint: allow-tolerance (primary definition)
  /// Minimum acceptable pivot magnitude.
  // lint: allow-knob (LP kernel tuning)
  double pivot_tol = 1e-8;  // lint: allow-tolerance (primary definition)
  /// 0 = automatic (proportional to rows + cols).
  // lint: allow-knob (LP kernel tuning)
  std::size_t max_iterations = 0;
  /// Paranoid mode: snapshot the initial system and verify the incremental
  /// solver state against it after every pivot (throws CheckError on drift).
  /// Costs one O(rows*cols) pass per pivot; intended for tests. Tableau only
  /// (kAuto routes audited solves to the tableau).
  bool audit = false;
  /// Implementation selector; see SimplexAlgorithm.
  SimplexAlgorithm algorithm = SimplexAlgorithm::kAuto;
  /// Starting basis for the revised solver (ignored by the tableau). The
  /// caller keeps ownership; pass the Basis returned by a previous solve of
  /// the same (possibly re-parameterized) model. Stale or structurally
  /// broken bases are repaired, never trusted blindly.
  const Basis* warm_start = nullptr;
  /// Revised solver: rebuild the LU factorization after this many eta
  /// updates (bounds the eta file and the accumulated roundoff).
  std::size_t refactor_interval = 64;  // lint: allow-knob (tests shorten it)
  /// Run the post-solve residual audit (lp/guard.h) and, on a non-clean
  /// verdict, the recovery escalation ladder: refactorize-and-warm-re-solve,
  /// then cold solve, then the dense tableau oracle. Off by default — the
  /// guarded path must cost nothing when disabled. Consumers that prune
  /// search trees on LP verdicts (src/exact) turn it on.
  bool guard = false;
  /// Deterministic fault-injection plan (lp/fault.h); nullptr = no faults.
  /// The caller keeps ownership for the duration of the solve. Recovery
  /// re-solves triggered by the guard run fault-free.
  const FaultPlan* fault_plan = nullptr;

  // Named derived tolerances — one contract shared by the solvers and the
  // guard instead of scattered magic constants.
  /// Slack for post-hoc primal checks (bound violations, audited row
  /// residuals): a 10x cushion over feas_tol, since audited quantities have
  /// accumulated a whole solve's roundoff. The tableau audit's row-equation
  /// check allows another 10x on top (rows sum many terms).
  [[nodiscard]] double audit_slack() const noexcept { return feas_tol * 10.0; }
  /// Pivot row/column agreement: the FTRAN and BTRAN views of the pivot
  /// element must agree to this relative tolerance or the dual simplex
  /// bails to the primal (a disagreement means the factorization is lying).
  [[nodiscard]] double pivot_agreement_tol() const noexcept {
    return pivot_tol * 100.0;
  }
  /// Dual-feasibility floor for the dual-simplex prologue: reduced costs may
  /// dip this far below optimality-sign and the basis still counts as
  /// dual-feasible (warm bases carry primal-scale noise, so the floor never
  /// drops below feas_tol).
  [[nodiscard]] double dual_feas_floor() const noexcept {
    const double scaled = opt_tol * 100.0;
    return scaled > feas_tol ? scaled : feas_tol;
  }
  /// Floor on the LU factorization's acceptable pivot magnitude: the
  /// eliminations tolerate pivots down to this even when pivot_tol is set
  /// tighter, because a structurally necessary small pivot is better than a
  /// spurious singularity (deficient columns are repaired with logicals).
  [[nodiscard]] double lu_pivot_floor() const noexcept {
    const double floor = 1e-11;  // lint: allow-tolerance (definition site)
    return pivot_tol > floor ? pivot_tol : floor;
  }
  /// Absolute tie window of the ratio tests (primal leaving row, dual
  /// entering column): candidates within this band of the best step length
  /// count as tied, and the tie-break (Bland's smallest index when stalling,
  /// largest pivot magnitude otherwise) picks among them. Deliberately far
  /// below feas_tol — it only has to separate genuinely equal steps from
  /// roundoff-distinct ones, and widening it degenerates the ratio test.
  [[nodiscard]] double ratio_tie_tol() const noexcept {
    return 1e-12;  // lint: allow-tolerance (named-tolerance definition site)
  }
};

/// What the sparse revised simplex keeps from one solve to the next: the
/// storage of its column-wise copy of the model, of its LU and eta file and
/// of its scratch vectors. Every solve still re-gathers the columns and
/// refactorizes on entry from the model data, so a workspace saves
/// allocation, never changes a result. lp::Session owns one per
/// warm chain; the overloads without one use a temporary. One solve at a
/// time: a workspace is not shared between threads.
class Workspace {
 public:
  Workspace();
  ~Workspace();
  Workspace(Workspace&&) noexcept;
  Workspace& operator=(Workspace&&) noexcept;

 private:
  friend Solution solve_revised(const Model& model,
                                const SimplexOptions& options,
                                Workspace& workspace);
  std::unique_ptr<internal::RevisedSolver> solver_;
};

/// Solves the LP. The default (kAuto) runs the sparse revised simplex; the
/// dense two-phase tableau remains available as the reference oracle (and is
/// what audit mode instruments). Both implementations use bounded-variable
/// pricing, switch to Bland's rule after a long stall to guarantee
/// termination, and return basic optimal solutions — extreme points of the
/// feasible region, a property Theorem 3.10's pseudoforest rounding relies
/// on.
[[nodiscard]] Solution solve(const Model& model, const SimplexOptions& options = {});
/// solve() on a caller-owned workspace (guard-ladder re-solves included).
[[nodiscard]] Solution solve(const Model& model, const SimplexOptions& options,
                             Workspace& workspace);

/// The dense two-phase tableau, directly (reference oracle).
[[nodiscard]] Solution solve_tableau(const Model& model,
                                     const SimplexOptions& options = {});

/// The sparse revised simplex, directly: column-wise sparse storage, LU
/// basis factorization with product-form eta updates and periodic
/// refactorization, FTRAN/BTRAN, candidate-list partial pricing, warm
/// starting from SimplexOptions::warm_start, and a bounded-variable dual
/// simplex that re-optimizes warm bases which are primal-infeasible but
/// dual-feasible (forced for every dual-feasible start by
/// SimplexAlgorithm::kDual), on `workspace`'s storage.
[[nodiscard]] Solution solve_revised(const Model& model,
                                     const SimplexOptions& options,
                                     Workspace& workspace);

}  // namespace setsched::lp
