#include "expt/aggregate.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <ostream>
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

void write_double(std::ostream& os, double v) {
  write_finite_double(os, v, "bench json summary");
}

void write_string_list(std::ostream& os, std::span<const std::string> items) {
  os << '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << items[i] << '"';
  }
  os << ']';
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
  std::vector<std::string> header = {
      "solver",     "preset",     "cells",      "ok",         "skipped",
      "failed",     "proven",     "gap_mean",   "ratio_mean", "ratio_max",
      "time_p50_ms", "time_p95_ms"};
  for (const CounterInfo& c : kCounters) header.emplace_back(c.label);
  header.insert(header.end(), {"lp%", "pricing%"});
  Table table(std::move(header));
  for (const AggregateSummary& s : summaries) {
    table.row()
        .add(s.solver)
        .add(s.preset)
        .add(s.cells)
        .add(s.ok)
        .add(s.skipped)
        .add(s.failed)
        .add(s.proven)
        .add(s.gap_mean, 4)
        .add(s.ratio_mean)
        .add(s.ratio_max)
        .add(s.time_p50_ms, 2)
        .add(s.time_p95_ms, 2);
    for (const double value : s.counter_mean) table.add(value, 1);
    table.add(s.lp_pct_mean, 1).add(s.pricing_pct_mean, 1);
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

  os << "{\n  \"bench\": \"expt\",\n  \"schema_version\": 1,\n  \"plan\": {\n"
     << "    \"presets\": ";
  write_string_list(os, plan.presets);
  os << ",\n    \"solvers\": ";
  write_string_list(os, plan.solvers);
  os << ",\n    \"seed_begin\": " << plan.seed_begin
     << ",\n    \"seed_end\": " << plan.seed_end << ",\n    \"epsilon\": ";
  write_double(os, plan.epsilon);
  os << ",\n    \"precision\": ";
  write_double(os, plan.precision);
  os << ",\n    \"time_limit_s\": ";
  write_double(os, plan.time_limit_s);
  os << ",\n    \"inject\": \"" << plan.inject << '"';
  os << ",\n    \"lp_audit\": " << (plan.lp_audit ? "true" : "false");
  os << "\n  },\n  \"cells\": " << cells << ",\n  \"ok\": " << ok
     << ",\n  \"skipped\": " << skipped << ",\n  \"failed\": " << failed
     << ",\n  \"summaries\": [";
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const AggregateSummary& s = summaries[i];
    os << (i > 0 ? "," : "") << "\n    {\"solver\": \"" << s.solver
       << "\", \"preset\": \"" << s.preset << "\", \"cells\": " << s.cells
       << ", \"ok\": " << s.ok << ", \"skipped\": " << s.skipped
       << ", \"failed\": " << s.failed << ", \"proven\": " << s.proven
       << ", \"certified\": " << s.certified << ", \"gap_mean\": ";
    write_double(os, s.gap_mean);
    os << ", \"ratio_mean\": ";
    write_double(os, s.ratio_mean);
    os << ", \"ratio_max\": ";
    write_double(os, s.ratio_max);
    os << ", \"time_p50_ms\": ";
    write_double(os, s.time_p50_ms);
    os << ", \"time_p95_ms\": ";
    write_double(os, s.time_p95_ms);
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      os << ", \"" << kCounters[c].name << "_mean\": ";
      write_double(os, s.counter_mean[c]);
    }
    os << ", \"lp_pct_mean\": ";
    write_double(os, s.lp_pct_mean);
    os << ", \"pricing_pct_mean\": ";
    write_double(os, s.pricing_pct_mean);
    os << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace setsched::expt
