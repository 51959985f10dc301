#pragma once

#include <array>
#include <cstddef>
#include <string_view>

namespace setsched {

/// The effort counters every solver reports, declared once. Each row is
/// X(field, label):
///   field  the struct field and the JSONL/CSV key;
///   label  the column header of the expt summary table.
/// Rows are in JSONL/CSV column order. The struct, the record writers and
/// the aggregates are all generated from this list, so a new counter is one
/// row here plus its docs/BENCH_SCHEMA.md entry.
///
///   lp_solves            LP solves, summed over every lp::Session the
///                        solver ran.
///   lp_iterations        Simplex iterations across those solves.
///   lp_dual_solves       Solves the dual simplex re-optimized (warm bases
///                        turned primal-infeasible, or explicit kDual runs).
///   fixed_vars           Job-machine pairs excluded by reduced-cost fixing
///                        at search nodes (exact solvers with LP bounds).
///   lp_audits_suspect    LP guard (lp/guard.h): post-solve audits that
///                        contested a solve. 0 when the guard is off.
///   lp_recoveries        LP guard: contested solves recovered by the
///                        refactorize-warm / cold re-solve rungs.
///   lp_oracle_fallbacks  LP guard: contested solves escalated to the
///                        ladder's last rung, a cold re-solve that
///                        refactorizes before every pivot.
///   cg_columns           Branch-and-price (exact/config_bound.h): columns
///                        priced into the restricted master.
///   cg_pricing_rounds    Branch-and-price: pricing rounds (one RMP solve
///                        plus one all-machines knapsack pass each).
///   cg_fallbacks         Branch-and-price: config-LP probes demoted to the
///                        assignment bound.
///   nodes                Search-tree nodes expanded (exact solvers).
///   lp_bounds_used       Assignment-LP relaxation probes spent on search
///                        bounding (exact solvers: lp_solves minus the
///                        branch-and-price RMP solves, one per pricing
///                        round).
///   lp_factorizations    LU factorizations of the revised simplex across
///                        those solves: one on entry to each solve plus one
///                        per refactorization trigger.
///   lp_lu_nnz            Off-diagonal L and U entries, summed over those
///                        factorizations (lp_lu_nnz / lp_factorizations is
///                        the mean fill per factorization).
#define SETSCHED_EFFORT_COUNTERS(X) \
  X(lp_solves, "lp_solves")         \
  X(lp_iterations, "lp_iters")      \
  X(lp_dual_solves, "lp_dual")      \
  X(fixed_vars, "fixed")            \
  X(lp_audits_suspect, "suspect")   \
  X(lp_recoveries, "recov")         \
  X(lp_oracle_fallbacks, "oracle")  \
  X(cg_columns, "cg_cols")          \
  X(cg_pricing_rounds, "cg_rounds") \
  X(cg_fallbacks, "cg_fb")          \
  X(nodes, "nodes")                 \
  X(lp_bounds_used, "lp_bounds")    \
  X(lp_factorizations, "lu")        \
  X(lp_lu_nnz, "lu_nnz")

/// Solver effort, zero for solvers without the corresponding machinery.
/// Result types inherit it, so `result.lp_solves` reads the counter
/// directly and `a.effort() = b.effort()` copies every counter at once.
struct EffortCounters {
#define SETSCHED_COUNTER_FIELD(field, label) std::size_t field = 0;
  SETSCHED_EFFORT_COUNTERS(SETSCHED_COUNTER_FIELD)
#undef SETSCHED_COUNTER_FIELD

  [[nodiscard]] EffortCounters& effort() noexcept { return *this; }
  [[nodiscard]] const EffortCounters& effort() const noexcept { return *this; }

  EffortCounters& operator+=(const EffortCounters& other) noexcept {
#define SETSCHED_COUNTER_ADD(field, label) field += other.field;
    SETSCHED_EFFORT_COUNTERS(SETSCHED_COUNTER_ADD)
#undef SETSCHED_COUNTER_ADD
    return *this;
  }

  [[nodiscard]] bool operator==(const EffortCounters&) const = default;
};

/// Index of each counter in kCounters and in per-counter arrays, e.g.
/// `summary.counter_mean[counter::nodes]`.
namespace counter {
enum Index : std::size_t {
#define SETSCHED_COUNTER_INDEX(field, label) field,
  SETSCHED_EFFORT_COUNTERS(SETSCHED_COUNTER_INDEX)
#undef SETSCHED_COUNTER_INDEX
};
}  // namespace counter

/// One row of the counter table, for the serializers to loop over.
struct CounterInfo {
  std::string_view name;   ///< JSONL/CSV key
  std::string_view label;  ///< summary-table column
  std::size_t EffortCounters::*field;
};

inline constexpr std::array kCounters = {
#define SETSCHED_COUNTER_INFO(field, label) \
  CounterInfo{#field, label, &EffortCounters::field},
    SETSCHED_EFFORT_COUNTERS(SETSCHED_COUNTER_INFO)
#undef SETSCHED_COUNTER_INFO
};

inline constexpr std::size_t kCounterCount = kCounters.size();

}  // namespace setsched
