#include "colgen/config_lp.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "colgen/coverage_master.h"
#include "common/check.h"
#include "core/bounds.h"
#include "obs/phase.h"
#include "obs/trace.h"

namespace setsched {

namespace {

/// Pricing grid of the T-search: buckets per probe T.
constexpr std::size_t kConfigLpGrid = 2048;
/// Pricing rounds per probe before it reports kIterationLimit.
constexpr std::size_t kConfigLpMaxRounds = 80;
/// Grid units subtracted before a weight is rounded up, absorbing the
/// roundoff of p / unit so an exact multiple of the unit is not rounded up
/// one unit too far. It can only lower a weight, so every configuration
/// whose true load fits stays priceable (the grid-conservatism certificate
/// of exact/config_bound.h); a priced set overshoots T by at most this many
/// units per item.
constexpr double kWeightRoundingSlack =
    1e-12;  // lint: allow-tolerance (named definition site)
/// Agreement the backtrack's recomputed class table must reach with the
/// forward pass at the chosen capacity (both sum the same duals).
constexpr double kBacktrackTol =
    1e-9;  // lint: allow-tolerance (named definition site)

}  // namespace

PricedConfig price_machine_config(const Instance& inst, MachineId i, double T,
                                  const std::vector<double>& dual,
                                  std::size_t grid, double tol,
                                  const std::vector<MachineId>* pinned) {
  check(T > 0.0, "config pricing needs a positive makespan guess");
  const double unit = T / static_cast<double>(grid);
  const auto weight_of = [&](double x) -> std::size_t {
    return static_cast<std::size_t>(
        std::ceil(x / unit - kWeightRoundingSlack));
  };

  PricedConfig best;

  // Jobs pinned to this machine are mandatory: their weights and class
  // openings are pre-committed (shrinking the free knapsack's capacity) and
  // their duals credited unconditionally. Overflow of the mandatory set
  // alone certifies pins_fit = false (see config_lp.h).
  std::size_t cap = grid;
  double mandatory_value = 0.0;
  std::vector<JobId> mandatory;
  std::vector<char> class_pinned_open(inst.num_classes(), 0);
  if (pinned != nullptr) {
    std::size_t used = 0;
    for (JobId j = 0; j < inst.num_jobs(); ++j) {
      if ((*pinned)[j] != i) continue;
      const ClassId k = inst.job_class(j);
      const double p = inst.proc(i, j);
      const double s = inst.setup(i, k);
      if (p >= kInfinity || s >= kInfinity) {
        best.pins_fit = false;  // ineligible pin: no configuration exists
        return best;
      }
      if (!class_pinned_open[k]) {
        class_pinned_open[k] = 1;
        used += weight_of(s);
      }
      used += weight_of(p);
      mandatory_value += dual[j];
      mandatory.push_back(j);
    }
    if (used > grid) {
      best.pins_fit = false;
      return best;
    }
    cap = grid - used;
  }

  struct Item {
    JobId job;
    std::size_t weight;
    double value;
  };
  struct ClassStage {
    ClassId cls;
    std::size_t setup_weight;
    std::vector<Item> items;
  };
  std::vector<ClassStage> stages;
  {
    const auto by_class = inst.jobs_by_class();
    for (ClassId k = 0; k < inst.num_classes(); ++k) {
      // A class opened by a mandatory job admits its free jobs setup-free.
      const bool pinned_open = class_pinned_open[k] != 0;
      const double s = inst.setup(i, k);
      if (!pinned_open && (s >= kInfinity || s > T)) continue;
      ClassStage stage{k, pinned_open ? 0 : weight_of(s), {}};
      for (const JobId j : by_class[k]) {
        if (pinned != nullptr && (*pinned)[j] != kUnassigned) continue;
        if (dual[j] <= tol) continue;
        const double p = inst.proc(i, j);
        if (p >= kInfinity || p > T) continue;
        const std::size_t w = weight_of(p);
        if (stage.setup_weight + w > cap) continue;
        stage.items.push_back({j, w, dual[j]});
      }
      if (!stage.items.empty()) stages.push_back(std::move(stage));
    }
  }

  if (stages.empty()) {
    best.value = mandatory_value;
    best.jobs = std::move(mandatory);
    return best;
  }

  // Forward: dp tables at class boundaries (capacity semantics, monotone).
  const std::size_t width = cap + 1;
  std::vector<std::vector<double>> boundary(stages.size() + 1,
                                            std::vector<double>(width, 0.0));
  const auto run_class = [&](const ClassStage& stage,
                             const std::vector<double>& before,
                             std::vector<char>* choice) {
    // inner[w] = best value when the class is open within capacity w.
    std::vector<double> inner(width, -1.0);
    for (std::size_t w = stage.setup_weight; w < width; ++w) {
      inner[w] = before[w - stage.setup_weight];
    }
    for (std::size_t t = 0; t < stage.items.size(); ++t) {
      const Item& item = stage.items[t];
      for (std::size_t w = width; w-- > item.weight;) {
        const double candidate = inner[w - item.weight];
        if (candidate < 0.0) continue;
        if (candidate + item.value > inner[w]) {
          inner[w] = candidate + item.value;
          if (choice != nullptr) {
            (*choice)[t * width + w] = 1;
          }
        }
      }
    }
    return inner;
  };

  for (std::size_t s = 0; s < stages.size(); ++s) {
    const auto inner = run_class(stages[s], boundary[s], nullptr);
    auto& after = boundary[s + 1];
    for (std::size_t w = 0; w < width; ++w) {
      after[w] = std::max(boundary[s][w], inner[w]);
    }
  }

  const double free_value = boundary[stages.size()][cap];
  if (free_value <= tol) {
    // No worthwhile free configuration. Without pins this is the legacy
    // "empty column" answer; with mandatory jobs the pinned set itself is
    // still a valid (and required) configuration.
    best.value = mandatory_value;
    best.jobs = std::move(mandatory);
    return best;
  }
  best.value = free_value + mandatory_value;

  // Backtrack, recomputing each class's inner table with choice flags.
  std::size_t w = cap;
  for (std::size_t s = stages.size(); s-- > 0;) {
    const auto& before = boundary[s];
    const auto& after = boundary[s + 1];
    if (after[w] == before[w]) continue;  // class skipped
    const ClassStage& stage = stages[s];
    std::vector<char> choice(stage.items.size() * width, 0);
    const auto inner = run_class(stage, before, &choice);
    check(std::abs(inner[w] - after[w]) < kBacktrackTol,
          "pricing backtrack mismatch");
    for (std::size_t t = stage.items.size(); t-- > 0;) {
      if (choice[t * width + w]) {
        best.jobs.push_back(stage.items[t].job);
        w -= stage.items[t].weight;
      }
    }
    check(w >= stage.setup_weight, "pricing backtrack below setup weight");
    w -= stage.setup_weight;
  }
  best.jobs.insert(best.jobs.end(), mandatory.begin(), mandatory.end());
  return best;
}

ConfigLpResult solve_config_lp(const Instance& instance, double T,
                               const ConfigLpOptions& options) {
  instance.validate();
  const std::size_t n = instance.num_jobs();
  const std::size_t m = instance.num_machines();

  struct Column {
    MachineId machine;
    std::vector<JobId> jobs;
    std::size_t z;  ///< master variable
  };
  std::vector<Column> columns;

  // The restricted master is built ONCE and only grows: each round appends
  // the newly priced configuration columns and re-solves warm from the
  // previous round's basis, so late rounds cost a handful of simplex
  // iterations instead of a full cold solve over every column so far.
  CoverageMaster master(n, m, options.simplex);
  ConfigLpResult out;
  const auto finish = [&](ConfigLpStatus status) {
    out.status = status;
    out.columns = columns.size();
    out.effort() = master.session().effort();
    return std::move(out);
  };

  for (std::size_t iter = 0; iter < kConfigLpMaxRounds; ++iter) {
    out.iterations = iter + 1;

    // --- pricing (parallel across machines) ---
    std::vector<PricedConfig> priced(m);
    const auto price_one = [&](std::size_t i) {
      priced[i] = price_machine_config(instance, static_cast<MachineId>(i), T,
                                       master.job_duals(), kConfigLpGrid,
                                       kConfigLpPricingTol);
    };
    {
      const obs::PhaseTimer phase(obs::Phase::kColgenPricing);
      obs::TraceSpan span("colgen_pricing", "colgen");
      span.set_arg("round", static_cast<double>(iter));
      if (options.pool != nullptr) {
        options.pool->parallel_for(0, m, price_one);
      } else {
        for (std::size_t i = 0; i < m; ++i) price_one(i);
      }
    }

    // A configuration improves the RMP iff its dual value beats the
    // machine's convexity dual.
    bool added = false;
    for (MachineId i = 0; i < m; ++i) {
      if (priced[i].jobs.empty()) continue;
      if (priced[i].value <= master.machine_duals()[i] + kConfigLpPricingTol) {
        continue;
      }
      added = true;
      const std::size_t z = master.add_column(i, priced[i].jobs);
      columns.push_back({i, std::move(priced[i].jobs), z});
    }
    if (!added) {
      // No improving column exists: the RMP optimum is the configuration-LP
      // optimum on this grid; coverage below n certifies grid-infeasibility.
      return finish(ConfigLpStatus::kInfeasibleAtGrid);
    }

    // --- restricted master problem (warm-started re-solve) ---
    const lp::Solution& sol = master.solve();
    check(sol.optimal(), "RMP solve failed");
    out.coverage = sol.objective;

    if (sol.objective >= static_cast<double>(n) - kConfigLpPricingTol) {
      // Feasible: recover (x, y).
      FractionalAssignment frac{
          Matrix<double>(m, n, 0.0),
          Matrix<double>(m, instance.num_classes(), 0.0)};
      for (const Column& column : columns) {
        const double z = std::clamp(sol.x[column.z], 0.0, 1.0);
        if (z <= 0.0) continue;
        const MachineId i = column.machine;
        std::vector<char> touched(instance.num_classes(), 0);
        for (const JobId j : column.jobs) {
          frac.x(i, j) += z;
          touched[instance.job_class(j)] = 1;
        }
        for (ClassId k = 0; k < instance.num_classes(); ++k) {
          if (touched[k]) frac.y(i, k) += z;
        }
      }
      // Normalize each job's mass to exactly 1 and restore y >= x.
      for (JobId j = 0; j < n; ++j) {
        double total = 0.0;
        for (MachineId i = 0; i < m; ++i) total += frac.x(i, j);
        check(total > 0.5, "covered job without configuration mass");
        for (MachineId i = 0; i < m; ++i) {
          frac.x(i, j) = std::min(1.0, frac.x(i, j) / total);
          frac.y(i, instance.job_class(j)) =
              std::min(1.0, std::max(frac.y(i, instance.job_class(j)),
                                     frac.x(i, j)));
        }
      }
      out.fractional = std::move(frac);
      return finish(ConfigLpStatus::kFeasible);
    }

    master.update_duals();  // for the next pricing round
  }
  return finish(ConfigLpStatus::kIterationLimit);
}

RoundingResult randomized_rounding_config(const Instance& instance,
                                          const RoundingOptions& rounding,
                                          const ConfigLpOptions& config) {
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

  // The grid is conservative: an integral schedule's makespan may be
  // rejected; widen hi until the config LP accepts.
  // The effort counters report the actual RMP work: every outer
  // solve_config_lp call adds its inner per-round counters.
  ConfigLpResult at_hi = solve_config_lp(instance, hi, config);
  out += at_hi;
  std::size_t widenings = 0;
  while (at_hi.status != ConfigLpStatus::kFeasible && widenings < 8) {
    hi *= 1.3;
    ++widenings;
    at_hi = solve_config_lp(instance, hi, config);
    out += at_hi;
  }
  check(at_hi.status == ConfigLpStatus::kFeasible,
        "config LP did not accept any upper bound");

  FractionalAssignment best = std::move(at_hi.fractional);
  while (hi / lo > 1.0 + rounding.search_precision) {
    const double mid = std::sqrt(lo * hi);
    ConfigLpResult probe = solve_config_lp(instance, mid, config);
    out += probe;
    if (probe.status == ConfigLpStatus::kFeasible) {
      hi = mid;
      best = std::move(probe.fractional);
    } else {
      lo = mid;  // grid-conservative reject: not a certified OPT bound
    }
  }
  out.lp_T = hi;

  round_once(instance, best, rounding.seed, &out);
  return out;
}

}  // namespace setsched
