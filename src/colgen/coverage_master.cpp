#include "colgen/coverage_master.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/check.h"
#include "obs/phase.h"
#include "obs/trace.h"

namespace setsched {

namespace {

/// One priced configuration column for a machine (the pricing subproblem's
/// optimum): the covered job set and its total dual value.
struct PricedConfig {
  double value = 0.0;  ///< Σ duals of covered jobs (mandatory jobs included)
  std::vector<JobId> jobs;
  /// False when the jobs *pinned to this machine* alone overflow the grid
  /// at T. Branch-and-price inflates T so that any truly-T-feasible set
  /// rounds within the grid (exact/config_bound.h), so this certifies the
  /// machine's true load exceeds T in EVERY completion — a sound prune.
  bool pins_fit = true;
};

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

/// Weight of a processing or setup time `x` on the pricing grid of unit
/// T / grid, rounded up.
std::size_t grid_weight(double x, double unit) {
  return static_cast<std::size_t>(std::ceil(x / unit - kWeightRoundingSlack));
}

/// Exact knapsack-with-class-opening-costs pricing for machine i on the
/// scaled grid (weights rounded up, so any returned set truly fits in T).
/// `pinned` (size n, kUnassigned = free) restricts the priced configuration
/// to ones consistent with a partial schedule: jobs pinned to machine i are
/// MANDATORY (always included, their class openings and weights
/// pre-committed, their duals credited even when below the tolerance), jobs
/// pinned elsewhere are EXCLUDED. Without mandatory jobs a value below the
/// tolerance returns an empty job set (no worthwhile configuration); with
/// them the pinned set is always returned so the master can cover them.
PricedConfig price_machine_config(const Instance& inst, MachineId i, double T,
                                  const std::vector<double>& dual,
                                  std::size_t grid,
                                  const std::vector<MachineId>& pinned) {
  check(T > 0.0, "config pricing needs a positive makespan guess");
  const double unit = T / static_cast<double>(grid);
  const auto weight_of = [&](double x) { return grid_weight(x, unit); };
  constexpr double tol = kConfigLpPricingTol;

  PricedConfig best;

  // Jobs pinned to this machine are mandatory: their weights and class
  // openings are pre-committed (shrinking the free knapsack's capacity) and
  // their duals credited unconditionally. Overflow of the mandatory set
  // alone certifies pins_fit = false (see PricedConfig).
  double mandatory_value = 0.0;
  std::vector<JobId> mandatory;
  std::vector<char> class_pinned_open(inst.num_classes(), 0);
  std::size_t used = 0;
  for (JobId j = 0; j < inst.num_jobs(); ++j) {
    if (pinned[j] != i) continue;
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
  const std::size_t cap = grid - used;

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
        if (pinned[j] != kUnassigned) continue;
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
          if (choice != nullptr) (*choice)[t * width + w] = 1;
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

}  // namespace

CoverageMaster::CoverageMaster(const Instance& instance, std::size_t grid,
                               ColumnFit fit, const lp::SimplexOptions& simplex,
                               bool colgen_phase)
    : inst_(instance),
      grid_(grid),
      fit_(fit),
      colgen_phase_(colgen_phase),
      session_(lp::Model(lp::Objective::kMaximize), simplex),
      pinned_(instance.num_jobs(), kUnassigned) {
  lp::Model& model = session_.model();
  for (JobId j = 0; j < inst_.num_jobs(); ++j) model.add_variable(0.0, 1.0, 1.0);
  for (JobId j = 0; j < inst_.num_jobs(); ++j) {
    model.add_constraint({{j, 1.0}}, lp::Sense::kLessEqual, 0.0);
  }
  for (MachineId i = 0; i < inst_.num_machines(); ++i) {
    model.add_constraint({}, lp::Sense::kLessEqual, 1.0);
  }
}

bool CoverageMaster::conflicts(const Column& c, JobId j, MachineId i) const {
  const bool contains = std::binary_search(c.jobs.begin(), c.jobs.end(), j);
  // A machine-i column must contain every job pinned to i; any other
  // machine's column must not contain it.
  return c.machine == i ? !contains : contains;
}

bool CoverageMaster::fits(const Column& c) const {
  if (fit_ == ColumnFit::kTrueLoad) return c.load <= T_;
  // The pricer at T_ could emit c: every item fits T_, and the rounded-up
  // weights of its jobs and of their classes' setups fit the grid.
  const double unit = T_ / static_cast<double>(grid_);
  std::vector<char> touched(inst_.num_classes(), 0);
  std::size_t used = 0;
  for (const JobId j : c.jobs) {
    const ClassId k = inst_.job_class(j);
    const double p = inst_.proc(c.machine, j);
    const double s = inst_.setup(c.machine, k);
    if (p > T_ || s > T_) return false;
    used += grid_weight(p, unit);
    if (!touched[k]) {
      touched[k] = 1;
      used += grid_weight(s, unit);
    }
  }
  return used <= grid_;
}

void CoverageMaster::sync_bounds(const Column& c) {
  const bool enabled = c.pin_blocks == 0 && !c.load_blocked;
  session_.model().set_bounds(c.z, 0.0, enabled ? 1.0 : 0.0);
}

void CoverageMaster::pin(JobId j, MachineId i) {
  pinned_[j] = i;
  for (Column& c : columns_) {
    if (!conflicts(c, j, i)) continue;
    if (++c.pin_blocks == 1 && !c.load_blocked) sync_bounds(c);
  }
}

void CoverageMaster::unpin(JobId j) {
  const MachineId i = pinned_[j];
  pinned_[j] = kUnassigned;
  if (i == kUnassigned) return;
  for (Column& c : columns_) {
    if (!conflicts(c, j, i)) continue;
    if (--c.pin_blocks == 0 && !c.load_blocked) sync_bounds(c);
  }
}

void CoverageMaster::retune(double T) {
  if (T == T_) return;
  T_ = T;
  for (Column& c : columns_) {
    const bool blocked = !fits(c);
    if (blocked == c.load_blocked) continue;
    c.load_blocked = blocked;
    if (c.pin_blocks == 0) sync_bounds(c);
  }
}

void CoverageMaster::add_column(MachineId i, std::vector<JobId> jobs) {
  std::sort(jobs.begin(), jobs.end());
  Column c;
  c.machine = i;
  c.jobs = std::move(jobs);
  std::vector<char> touched(inst_.num_classes(), 0);
  for (const JobId j : c.jobs) {
    c.load += inst_.proc(i, j);
    touched[inst_.job_class(j)] = 1;
  }
  for (ClassId k = 0; k < inst_.num_classes(); ++k) {
    if (touched[k]) c.load += inst_.setup(i, k);
  }
  lp::Model& model = session_.model();
  c.z = model.add_variable(0.0, 1.0, 0.0);
  for (const JobId j : c.jobs) model.add_to_row(j, c.z, -1.0);
  model.add_to_row(inst_.num_jobs() + i, c.z, 1.0);
  // The pricer only emits pin-consistent columns that fit the current T
  // (weights are rounded up), so a fresh column starts enabled unless its
  // true load overshoots T by the pricer's rounding slack.
  c.load_blocked = !fits(c);
  if (c.load_blocked) sync_bounds(c);
  columns_.push_back(std::move(c));
}

ConfigLpStatus CoverageMaster::probe(std::size_t max_rounds,
                                     ThreadPool* threads) {
  const std::size_t n = inst_.num_jobs();
  const std::size_t m = inst_.num_machines();
  last_probe_rounds_ = 0;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    ++last_probe_rounds_;
    ++pricing_rounds_;

    const lp::Solution& sol = session_.solve();
    if (!sol.optimal() || sol.audit_contested()) {
      return ConfigLpStatus::kContested;
    }
    if (sol.objective >= static_cast<double>(n) - kConfigLpPricingTol) {
      return ConfigLpStatus::kFeasible;
    }
    // Pricing duals: the maximize convention gives y >= 0 on binding <=
    // rows; rows j are the jobs', rows n + i the machines' convexity rows.
    std::vector<double> dual(n);
    for (JobId j = 0; j < n; ++j) dual[j] = std::max(0.0, sol.duals[j]);

    // Pricing reads the duals, T and the pins, which appends leave alone,
    // so pricing every machine first is the same as interleaving the two.
    std::vector<PricedConfig> priced(m);
    const auto price_one = [&](std::size_t i) {
      priced[i] = price_machine_config(inst_, static_cast<MachineId>(i), T_,
                                       dual, grid_, pinned_);
    };
    {
      std::optional<obs::PhaseTimer> phase;
      std::optional<obs::TraceSpan> span;
      if (colgen_phase_) {
        phase.emplace(obs::Phase::kColgenPricing);
        span.emplace("colgen_pricing", "colgen");
        span->set_arg("round", static_cast<double>(round));
      }
      if (threads != nullptr) {
        threads->parallel_for(0, m, price_one);
      } else {
        for (std::size_t i = 0; i < m; ++i) {
          price_one(i);
          if (!priced[i].pins_fit) break;
        }
      }
    }

    bool added = false;
    for (MachineId i = 0; i < m; ++i) {
      if (!priced[i].pins_fit) return ConfigLpStatus::kPinsOverflow;
      // A configuration improves the master iff its dual value beats the
      // machine's convexity dual.
      if (priced[i].jobs.empty() ||
          priced[i].value <=
              std::max(0.0, sol.duals[n + i]) + kConfigLpPricingTol) {
        continue;
      }
      add_column(i, std::move(priced[i].jobs));
      added = true;
    }
    if (!added) return ConfigLpStatus::kInfeasibleAtGrid;
  }
  return ConfigLpStatus::kIterationLimit;
}

FractionalAssignment CoverageMaster::fractional() const {
  const std::size_t n = inst_.num_jobs();
  const std::size_t m = inst_.num_machines();
  const std::vector<double>& z = session_.last().x;
  FractionalAssignment frac{Matrix<double>(m, n, 0.0),
                            Matrix<double>(m, inst_.num_classes(), 0.0)};
  std::vector<char> touched(inst_.num_classes());
  for (const Column& c : columns_) {
    const double mass = std::clamp(z[c.z], 0.0, 1.0);
    if (mass <= 0.0) continue;
    std::fill(touched.begin(), touched.end(), 0);
    for (const JobId j : c.jobs) {
      frac.x(c.machine, j) += mass;
      touched[inst_.job_class(j)] = 1;
    }
    for (ClassId k = 0; k < inst_.num_classes(); ++k) {
      if (touched[k]) frac.y(c.machine, k) += mass;
    }
  }
  // Normalize each job's mass to exactly 1 and restore y >= x.
  for (JobId j = 0; j < n; ++j) {
    double total = 0.0;
    for (MachineId i = 0; i < m; ++i) total += frac.x(i, j);
    check(total > 0.5, "covered job without configuration mass");
    const ClassId k = inst_.job_class(j);
    for (MachineId i = 0; i < m; ++i) {
      frac.x(i, j) = std::min(1.0, frac.x(i, j) / total);
      frac.y(i, k) = std::min(1.0, std::max(frac.y(i, k), frac.x(i, j)));
    }
  }
  return frac;
}

EffortCounters CoverageMaster::effort() const {
  EffortCounters out = session_.effort();
  out.cg_columns = columns_.size();
  out.cg_pricing_rounds = pricing_rounds_;
  return out;
}

bool CoverageMaster::check_invariants() const {
  const lp::Model& rmp = session_.model();
  for (const Column& c : columns_) {
    int blocks = 0;
    for (JobId j = 0; j < inst_.num_jobs(); ++j) {
      if (pinned_[j] != kUnassigned && conflicts(c, j, pinned_[j])) ++blocks;
    }
    if (blocks != c.pin_blocks || c.load_blocked == fits(c)) return false;
    if (c.z >= rmp.num_variables()) return false;
    const bool disabled = c.pin_blocks > 0 || c.load_blocked;
    if (rmp.upper(c.z) != (disabled ? 0.0 : 1.0)) return false;
  }
  // Columns are append-only, so a warm basis carried across backtracking
  // and retuning never references more structurals than the model holds.
  return session_.basis().structurals.size() <= rmp.num_variables() &&
         session_.basis().logicals.size() <= rmp.num_constraints();
}

}  // namespace setsched
