#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/counters.h"
#include "expt/plan.h"
#include "expt/record.h"

namespace setsched::expt {

/// Per-(solver, preset) rollup of a sweep. Quality statistics (ratio) and
/// runtime percentiles are computed over the ok cells only; empty buckets
/// (every cell skipped or failed) report zeros. The field order of the
/// summary table and of BENCH_expt.json is declared once, in aggregate.cpp's
/// column list.
struct AggregateSummary {
  std::string solver;
  std::string preset;
  std::size_t cells = 0;
  std::size_t ok = 0;
  std::size_t skipped = 0;
  std::size_t failed = 0;  ///< kInvalid + kError
  double ratio_mean = 0.0;
  double ratio_max = 0.0;
  double time_p50_ms = 0.0;
  double time_p95_ms = 0.0;
  /// Mean of each effort counter over the ok cells, indexed like
  /// kCounters (core/counters.h), e.g. counter_mean[counter::lp_solves].
  std::array<double, kCounterCount> counter_mean{};
  /// Mean percent of a cell's wall clock spent in the LP substrate
  /// (phase_ms["lp_solve"] / time_ms) resp. LP pricing passes, over the ok
  /// cells with timing on (time_ms > 0). 0 when timing was off.
  double lp_pct_mean = 0.0;
  double pricing_pct_mean = 0.0;
  /// Ok cells whose schedule the solver certified optimal. Quality tables
  /// may only cite a bucket as ground truth when proven == ok.
  std::size_t proven = 0;
  /// Ok cells carrying a certificate (gap >= 0, exact/dive solvers).
  std::size_t certified = 0;
  /// Mean certified gap over those cells (0 when none are certified).
  double gap_mean = 0.0;

  [[nodiscard]] bool operator==(const AggregateSummary&) const = default;
};

/// Groups records by (solver, preset) and summarizes each bucket; the result
/// is sorted by (solver, preset).
[[nodiscard]] std::vector<AggregateSummary> aggregate(
    std::span<const RunRecord> records);

/// Renders summaries as a common/table comparison table.
[[nodiscard]] Table summary_table(std::span<const AggregateSummary> summaries);

/// Machine-readable sweep report (the BENCH_expt.json trajectory artifact):
/// the plan, sweep-wide counts, and the per-bucket summaries.
void write_bench_json(std::ostream& os, const ExperimentPlan& plan,
                      std::span<const AggregateSummary> summaries);

}  // namespace setsched::expt
