#include "expt/aggregate.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <ostream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/format.h"
#include "common/stats.h"
#include "obs/phase.h"

namespace setsched::expt {

namespace {

struct Bucket {
  std::size_t cells = 0;
  std::size_t ok = 0;
  std::size_t skipped = 0;
  std::size_t failed = 0;
  std::vector<double> ratios;         // ok cells only
  std::vector<double> times_ms;       // ok cells only
  std::array<std::vector<double>, kCounterCount> counters;  // ok cells only
  std::vector<double> lp_pct;         // ok cells with time_ms > 0
  std::vector<double> pricing_pct;    // ok cells with time_ms > 0
  std::size_t proven = 0;             // ok cells certified optimal
  std::vector<double> gaps;           // ok cells with a certificate
};

/// One column of the AggregateSummary schema.
struct SummaryColumn {
  std::string_view key;    ///< BENCH_expt.json key
  std::string_view label;  ///< summary-table header; empty: JSON only
  int precision = 3;       ///< summary-table decimals of a double
};

/// The AggregateSummary schema, declared once: `column(spec, value)` per
/// field in wire order. The summary table and the summary objects of
/// BENCH_expt.json are both generated from this list, so a new summary
/// field is one line here plus its docs/BENCH_SCHEMA.md entry.
template <class Column>
void for_each_column(const AggregateSummary& s, Column&& column) {
  column({"solver", "solver"}, s.solver);
  column({"preset", "preset"}, s.preset);
  column({"cells", "cells"}, s.cells);
  column({"ok", "ok"}, s.ok);
  column({"skipped", "skipped"}, s.skipped);
  column({"failed", "failed"}, s.failed);
  column({"proven", "proven"}, s.proven);
  column({"certified", ""}, s.certified);
  column({"gap_mean", "gap_mean", 4}, s.gap_mean);
  column({"ratio_mean", "ratio_mean"}, s.ratio_mean);
  column({"ratio_max", "ratio_max"}, s.ratio_max);
  column({"time_p50_ms", "time_p50_ms", 2}, s.time_p50_ms);
  column({"time_p95_ms", "time_p95_ms", 2}, s.time_p95_ms);
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    const std::string key = std::string(kCounters[c].name) + "_mean";
    column({key, kCounters[c].label, 1}, s.counter_mean[c]);
  }
  column({"lp_pct_mean", "lp%", 1}, s.lp_pct_mean);
  column({"pricing_pct_mean", "pricing%", 1}, s.pricing_pct_mean);
}

/// `sep"key": value`, one member of a BENCH_expt.json object.
template <class T>
void write_member(std::ostream& os, std::string_view sep, std::string_view key,
                  const T& value) {
  os << sep;
  write_json_string(os, key);
  os << ": ";
  write_json_value(os, value, "bench json summary");
}

}  // namespace

std::vector<AggregateSummary> aggregate(std::span<const RunRecord> records) {
  std::map<std::pair<std::string, std::string>, Bucket> buckets;
  for (const RunRecord& r : records) {
    Bucket& bucket = buckets[{r.solver, r.preset}];
    ++bucket.cells;
    switch (r.status) {
      case RunStatus::kOk:
        ++bucket.ok;
        bucket.ratios.push_back(r.ratio);
        bucket.times_ms.push_back(r.time_ms);
        for (std::size_t c = 0; c < kCounterCount; ++c) {
          bucket.counters[c].push_back(
              static_cast<double>(r.*kCounters[c].field));
        }
        if (r.time_ms > 0.0) {
          bucket.lp_pct.push_back(100.0 * r.phase_ms.lp_ms() / r.time_ms);
          bucket.pricing_pct.push_back(
              100.0 * r.phase_ms[obs::Phase::kLpPricing] / r.time_ms);
        }
        if (r.proven_optimal) ++bucket.proven;
        if (r.gap >= 0.0) bucket.gaps.push_back(r.gap);
        break;
      case RunStatus::kSkipped:
        ++bucket.skipped;
        break;
      case RunStatus::kInvalid:
      case RunStatus::kError:
        ++bucket.failed;
        break;
    }
  }

  std::vector<AggregateSummary> summaries;
  summaries.reserve(buckets.size());
  for (auto& [key, bucket] : buckets) {
    AggregateSummary s;
    s.solver = key.first;
    s.preset = key.second;
    s.cells = bucket.cells;
    s.ok = bucket.ok;
    s.skipped = bucket.skipped;
    s.failed = bucket.failed;
    // mean/max_value are defined (0.0) on the empty all-failed bucket;
    // percentile throws on empty, so it stays behind the ok-count guard.
    s.ratio_mean = mean(bucket.ratios);
    s.ratio_max = max_value(bucket.ratios);
    if (!bucket.times_ms.empty()) {
      s.time_p50_ms = percentile(bucket.times_ms, 0.5);
      s.time_p95_ms = percentile(bucket.times_ms, 0.95);
    }
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      s.counter_mean[c] = mean(bucket.counters[c]);
    }
    s.lp_pct_mean = mean(bucket.lp_pct);
    s.pricing_pct_mean = mean(bucket.pricing_pct);
    s.proven = bucket.proven;
    s.certified = bucket.gaps.size();
    s.gap_mean = mean(bucket.gaps);
    summaries.push_back(std::move(s));
  }
  return summaries;  // std::map iterates keys in (solver, preset) order
}

Table summary_table(std::span<const AggregateSummary> summaries) {
  std::vector<std::string> header;
  for_each_column(AggregateSummary{}, [&](const SummaryColumn& column,
                                          const auto&) {
    if (!column.label.empty()) header.emplace_back(column.label);
  });
  Table table(std::move(header));
  for (const AggregateSummary& s : summaries) {
    table.row();
    for_each_column(s, [&](const SummaryColumn& column, const auto& value) {
      if (column.label.empty()) return;
      if constexpr (std::is_floating_point_v<
                        std::remove_cvref_t<decltype(value)>>) {
        table.add(value, column.precision);
      } else {
        table.add(value);
      }
    });
  }
  return table;
}

void write_bench_json(std::ostream& os, const ExperimentPlan& plan,
                      std::span<const AggregateSummary> summaries) {
  std::size_t cells = 0, ok = 0, skipped = 0, failed = 0;
  for (const AggregateSummary& s : summaries) {
    cells += s.cells;
    ok += s.ok;
    skipped += s.skipped;
    failed += s.failed;
  }

  os << "{\n  \"bench\": \"expt\",\n  \"schema_version\": 1,\n  \"plan\": {";
  write_member(os, "\n    ", "presets", plan.presets);
  write_member(os, ",\n    ", "solvers", plan.solvers);
  write_member(os, ",\n    ", "seed_begin", plan.seed_begin);
  write_member(os, ",\n    ", "seed_end", plan.seed_end);
  write_member(os, ",\n    ", "epsilon", plan.epsilon);
  write_member(os, ",\n    ", "precision", plan.precision);
  write_member(os, ",\n    ", "time_limit_s", plan.time_limit_s);
  write_member(os, ",\n    ", "inject", plan.inject);
  write_member(os, ",\n    ", "lp_audit", plan.lp_audit);
  os << "\n  }";
  write_member(os, ",\n  ", "cells", cells);
  write_member(os, ",\n  ", "ok", ok);
  write_member(os, ",\n  ", "skipped", skipped);
  write_member(os, ",\n  ", "failed", failed);
  os << ",\n  \"summaries\": [";
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    os << (i > 0 ? "," : "") << "\n    {";
    std::string_view sep;
    for_each_column(summaries[i],
                    [&](const SummaryColumn& column, const auto& value) {
                      write_member(os, sep, column.key, value);
                      sep = ", ";
                    });
    os << '}';
  }
  os << "\n  ]\n}\n";
}

}  // namespace setsched::expt
