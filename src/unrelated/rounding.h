#pragma once

#include <cstdint>

#include "core/instance.h"
#include "core/result.h"
#include "unrelated/assignment_lp.h"

namespace setsched {

/// Sampling rounds factor: a rounding runs ceil(kRoundingC * log2 n) rounds
/// (paper: c log n).
inline constexpr double kRoundingC = 3.0;

struct RoundingOptions {
  /// The one sampling run draws its stream from the first output of
  /// Xoshiro256(seed).
  std::uint64_t seed = 1;
  /// Binary-search precision for the makespan guess T.
  double search_precision = 0.05;
  /// Simplex options of the assignment-LP T-search (`guard` audits every
  /// probe).
  lp::SimplexOptions lp = {};
};

/// The effort counters echo the LP work of the T-search: the assignment-LP
/// chain on the direct path (guard counters 0 unless RoundingOptions::lp
/// enables the residual audits), every
/// RMP solve of every config-LP probe on the colgen path (lp_dual_solves 0
/// there: the RMP grows columns instead of mutating bounds).
struct RoundingResult : EffortCounters {
  Schedule schedule;
  double makespan = 0.0;
  /// LP-feasible makespan guess the rounding worked against.
  double lp_T = 0.0;
  /// Proven lower bound on OPT (largest T where the LP was infeasible,
  /// or the trivial floor). makespan / lp_lower_bound bounds the true ratio.
  double lp_lower_bound = 0.0;
  /// Jobs that stayed unassigned after all rounds and were placed by the
  /// argmin-p fallback (step 3 of the algorithm).
  std::size_t fallback_jobs = 0;
  std::size_t rounds = 0;
};

/// One pass of the Sec. 3.1 sampling given a fractional solution:
/// performs `rounds` rounds of (y, then x | y) Bernoulli sampling, keeps each
/// job's first sampled machine, and places leftovers on argmin_i p_ij.
/// Exposed separately for tests and ablations.
[[nodiscard]] Schedule round_fractional(const Instance& instance,
                                        const FractionalAssignment& fractional,
                                        std::size_t rounds, std::uint64_t seed,
                                        std::size_t* fallback_jobs = nullptr);

/// The sampling step of Theorem 3.3 on a fractional solution: one
/// round_fractional pass of ceil(kRoundingC * log2 n) rounds, its stream
/// seeded by the first output of Xoshiro256(seed). Sets out's schedule,
/// makespan, fallback_jobs and rounds; shared by both T-searches.
void round_once(const Instance& instance, const FractionalAssignment& fractional,
                std::uint64_t seed, RoundingResult* out);

/// Full Theorem 3.3 algorithm: dual-approximation binary search for the
/// smallest LP-feasible T, then randomized rounding of the fractional
/// solution. Expected makespan O(T (log n + log m)).
[[nodiscard]] RoundingResult randomized_rounding(const Instance& instance,
                                                 const RoundingOptions& options = {});

/// Deterministic sibling of the Theorem 3.3 rounding: binary-searches the
/// smallest LP-feasible T, then assigns each job to the machine carrying its
/// largest fraction x_ij. No approximation guarantee (mass can concentrate),
/// but a useful derandomized baseline against the sampling rounding.
[[nodiscard]] ScheduleResult argmax_rounding(
    const Instance& instance, double search_precision = 0.05,
    const lp::SimplexOptions& simplex = {});

}  // namespace setsched
