#include "colgen/config_lp.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "colgen/coverage_master.h"
#include "common/bisect.h"
#include "common/check.h"
#include "core/bounds.h"

namespace setsched {

namespace {

/// Pricing grid of the T-search: buckets per probe T.
constexpr std::size_t kConfigLpGrid = 2048;
/// Pricing rounds per probe before it reports kIterationLimit.
constexpr std::size_t kConfigLpMaxRounds = 80;

/// One T-search probe: retune `master` to T, run the round loop, and
/// recover the fractional solution when it accepts.
ConfigLpResult probe_config_lp(CoverageMaster& master, double T,
                               ThreadPool* threads) {
  master.retune(T);
  ConfigLpResult out;
  out.status = master.probe(kConfigLpMaxRounds, threads);
  if (out.status == ConfigLpStatus::kFeasible) {
    out.fractional = master.fractional();
  }
  out.coverage = master.coverage();
  out.effort() = master.effort();
  return out;
}

}  // namespace

ConfigLpResult solve_config_lp(const Instance& instance, double T,
                               const ConfigLpOptions& options) {
  instance.validate();
  CoverageMaster master(instance, kConfigLpGrid, ColumnFit::kGrid,
                        options.simplex, /*colgen_phase=*/true);
  return probe_config_lp(master, T, options.pool);
}

RoundingResult randomized_rounding_config(
    const Instance& instance, const RoundingOptions& rounding,
    const ConfigLpOptions& config,
    const std::function<void(double, const ConfigLpResult&)>& on_probe) {
  instance.validate();
  RoundingResult out;
  const double upper = unrelated_upper_bound(instance);
  if (upper <= 0.0) {
    // Every job has a free machine: the best-machine schedule has makespan
    // 0 and is optimal (and a zero guess has no pricing grid).
    out.schedule = best_machine_schedule(instance);
    return out;
  }
  // The setup-blind floor is 0 when every job has a zero-processing
  // machine; the geometric search needs a positive left end, and the
  // setup-aware bound is positive whenever OPT is.
  double lo = assignment_lp_floor(instance);
  if (lo <= 0.0) lo = unrelated_lower_bound(instance);
  double hi = std::max(lo, upper);
  out.lp_lower_bound = lo;  // certified independent of the pricing grid

  CoverageMaster master(instance, kConfigLpGrid, ColumnFit::kGrid,
                        config.simplex, /*colgen_phase=*/true);
  const auto probe = [&](double T) {
    ConfigLpResult result = probe_config_lp(master, T, config.pool);
    if (on_probe) on_probe(T, result);
    return result;
  };
  // The grid is conservative: an integral schedule's makespan may be
  // rejected; widen hi until the config LP accepts.
  ConfigLpResult at_hi = probe(hi);
  for (std::size_t widenings = 0;
       at_hi.status != ConfigLpStatus::kFeasible && widenings < 8;
       ++widenings) {
    hi *= 1.3;
    at_hi = probe(hi);
  }
  check(at_hi.status == ConfigLpStatus::kFeasible,
        "config LP did not accept any upper bound");

  FractionalAssignment best = std::move(at_hi.fractional);
  while (const std::optional<double> mid =
             geometric_midpoint(lo, hi, rounding.search_precision)) {
    ConfigLpResult result = probe(*mid);
    if (result.status == ConfigLpStatus::kFeasible) {
      hi = *mid;
      best = std::move(result.fractional);
    } else {
      lo = *mid;  // grid-conservative reject: not a certified OPT bound
    }
  }
  out.lp_T = hi;
  out.effort() = master.effort();
  round_once(instance, best, rounding.seed, &out);
  return out;
}

}  // namespace setsched
