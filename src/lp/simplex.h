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
  /// Final basis snapshot for warm starting subsequent solves, and the
  /// statuses the audit checks the reduced-cost signs against. Populated on
  /// kOptimal by both solvers, and by the revised solver on kInfeasible too
  /// (an infeasible probe's basis is still a good seed for the next probe of
  /// a T-search).
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
  /// successful warm/cold re-solve recoveries (rungs 1 and 2), and
  /// escalations to the last rung, a cold re-solve that refactorizes before
  /// every pivot. All zero when unguarded.
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
  /// The sparse revised solver. It picks dual re-optimization whenever a
  /// warm basis is primal-infeasible but dual-feasible (the state a warm
  /// basis is in right after an rhs/bound re-parameterization).
  kAuto,
  /// Dense bounded-variable two-phase tableau: the reference oracle the
  /// tests compare against. No production path selects it.
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
  /// Implementation selector; see SimplexAlgorithm.
  SimplexAlgorithm algorithm = SimplexAlgorithm::kAuto;
  /// Starting basis for the revised solver (ignored by the tableau). The
  /// caller keeps ownership; pass the Basis returned by a previous solve of
  /// the same (possibly re-parameterized) model. Stale or structurally
  /// broken bases are repaired, never trusted blindly.
  const Basis* warm_start = nullptr;
  /// Revised solver: rebuild the LU factorization after this many eta
  /// updates (bounds the eta file and the accumulated roundoff). The guard
  /// ladder's last rung sets it to 1: a fresh LU before every pivot.
  std::size_t refactor_interval = 64;
  /// Run the post-solve residual audit (lp/guard.h) and, on a non-clean
  /// verdict, the recovery escalation ladder: refactorize-and-warm-re-solve,
  /// then a cold solve, then a cold solve that refactorizes before every
  /// pivot. Off by default — the guarded path must cost nothing when
  /// disabled. Consumers that prune search trees on LP verdicts (src/exact)
  /// turn it on.
  bool guard = false;
  /// Deterministic fault-injection plan (lp/fault.h); nullptr = no faults.
  /// The caller keeps ownership for the duration of the solve. Recovery
  /// re-solves triggered by the guard run fault-free.
  const FaultPlan* fault_plan = nullptr;
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
/// dense two-phase tableau remains available as the tests' reference
/// oracle (kTableau). Both implementations use bounded-variable
/// pricing, switch to Bland's rule after a long stall to guarantee
/// termination, and return basic optimal solutions — extreme points of the
/// feasible region, a property Theorem 3.10's pseudoforest rounding relies
/// on.
[[nodiscard]] Solution solve(const Model& model, const SimplexOptions& options = {});
/// solve() on a caller-owned workspace (guard-ladder re-solves included).
[[nodiscard]] Solution solve(const Model& model, const SimplexOptions& options,
                             Workspace& workspace);

/// The dense two-phase tableau, directly (the tests' reference oracle). It
/// reads no option: it always solves cold.
[[nodiscard]] Solution solve_tableau(const Model& model);

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
