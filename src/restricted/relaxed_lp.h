#pragma once

#include <optional>

#include "common/matrix.h"
#include "core/counters.h"
#include "core/instance.h"
#include "lp/simplex.h"

namespace setsched {

/// Fractional class-to-machine distribution from LP-RelaxedRA
/// (Eq. 11-14 / 16 of the paper). xbar(i,k) is the fraction of class k's
/// workload processed on machine i:
///   (11) Σ_k xbar_ik (p̄_ik + α_ik s_ik) <= T   per machine,
///   (12) Σ_i xbar_ik  = 1                      per class with jobs,
///   (13) xbar >= 0,
///   (14/16) xbar_ik = 0 when s_ik + max_{j∈k} p_ij > T.
/// The exclusion rule implements Eq. (16) and, specialized to restricted
/// assignment with class-uniform restrictions (machine-independent p_j),
/// the Eq. (9)-derived filter the Thm 3.10 filling argument relies on.
struct RelaxedLp {
  Matrix<double> xbar;        ///< m x K; basic (extreme-point) solution
  Matrix<double> class_work;  ///< p̄_ik; +inf when machine i ineligible for k
  double T = 0.0;
};

/// Solves LP-RelaxedRA for makespan guess T through the shared lp::solve
/// entry point (the sparse revised simplex by default; pass options to pin
/// the tableau oracle). The returned solution is basic, i.e. an extreme
/// point — required by the pseudoforest rounding, and guaranteed by both
/// implementations. Returns std::nullopt iff infeasible. Classes without
/// jobs get an all-zero xbar row. When `effort` is non-null the call is
/// ADDED to it as one lp_solve with its simplex iterations and guard
/// counters (also for infeasible probes, which still cost pivots — the
/// T-search reports the sum).
[[nodiscard]] std::optional<RelaxedLp> solve_relaxed_lp(
    const Instance& instance, double T, const lp::SimplexOptions& options = {},
    EffortCounters* effort = nullptr);

/// Largest trivially LP-infeasible T:
///   max( max_k min_i (s_ik + max_{j∈k} p_ij) ,
///        Σ_k min_i (p̄_ik + s_ik) / m ).
[[nodiscard]] double relaxed_lp_floor(const Instance& instance);

}  // namespace setsched
