#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
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

/// Column id of a variable the relaxation does not have (a pair filtered at
/// the build guess, an infinite setup) and row id of an empty load row.
inline constexpr std::size_t kNoVar = SIZE_MAX;

/// Where build_assignment_lp() put ILP-UM's pieces in the model.
struct AssignmentLpLayout {
  Matrix<std::size_t> x_var;          ///< m x n column ids (kNoVar = none)
  Matrix<std::size_t> y_var;          ///< m x K column ids (kNoVar = none)
  std::vector<std::size_t> load_row;  ///< per machine (kNoVar = none)
  /// True when a job fits nowhere at T_build; the model is then incomplete
  /// and every probe at T <= T_build is infeasible a fortiori.
  bool structurally_infeasible = false;
};

/// Builds the relaxation of ILP-UM at makespan guess T_build into the empty
/// `model`: the x columns of the pairs (5) admits at T_build (cost 0, bounds
/// [0, 1]), then the y columns of the finite setups (cost 1: the setup
/// mass), then the rows (2) per job, (1) per machine with rhs T_build, and
/// (4) per x column. Both warm chains over ILP-UM start from this model —
/// the T-search as is, the exact search's min-makespan bounder
/// (exact/lp_bound.h) after moving T into a column — so its column and row
/// order is the order their warm bases refer to.
[[nodiscard]] AssignmentLpLayout build_assignment_lp(const Instance& instance,
                                                     double T_build,
                                                     lp::Model* model);

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
  /// `simplex.guard` runs every probe under the residual audit and its
  /// recovery ladder (lp/guard.h); off by default, since the approximation
  /// pipelines only consume feasibility windows and tolerate a bad probe.
  ParametricAssignmentLp(const Instance& instance, double T_build,
                         const lp::SimplexOptions& simplex = {});

  /// Re-parameterizes the model to T and solves, warm-starting from the
  /// basis of the previous call (feasible or not). Among feasible solutions
  /// one minimizing the setup mass Σ y_ik is returned. Returns std::nullopt
  /// iff the LP is infeasible at T.
  [[nodiscard]] std::optional<FractionalAssignment> solve(double T);

  /// Work of the chain so far: lp_solves, lp_iterations, lp_dual_solves,
  /// and the guard counters (guarded solves whose audit was contested —
  /// each solve's ladder can contest more than once — and how they were
  /// recovered).
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
  const Instance* instance_;
  double T_build_;
  /// The model and its warm chain across probes.
  lp::Session session_;
  AssignmentLpLayout layout_;
};

/// Solves the relaxation of ILP-UM for makespan guess T. Among feasible
/// solutions, one minimizing Σ y_ik is returned (y as tight as possible
/// against constraint (4), which only helps the rounding probabilities).
/// Returns std::nullopt iff the LP is infeasible, i.e. no schedule of
/// makespan <= T exists even fractionally.
[[nodiscard]] std::optional<FractionalAssignment> solve_assignment_lp(
    const Instance& instance, double T,
    const lp::SimplexOptions& simplex = {});

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
/// guard counters stay 0 unless simplex.guard is set).
struct LpSearchResult : EffortCounters {
  double feasible_T = 0.0;    ///< hi: LP feasible here (solution below)
  double lower_bound = 0.0;   ///< lo: OPT is >= this
  FractionalAssignment fractional;
};
[[nodiscard]] LpSearchResult search_assignment_lp(
    const Instance& instance, double precision = 0.05,
    const lp::SimplexOptions& simplex = {});

}  // namespace setsched
