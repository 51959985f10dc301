#include "api/registry.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "colgen/config_lp.h"
#include "common/check.h"
#include "common/timer.h"
#include "core/bounds.h"
#include "core/schedule.h"
#include "exact/branch_bound.h"
#include "improve/local_search.h"
#include "restricted/approx.h"
#include "uniform/lpt.h"
#include "uniform/ptas.h"
#include "unrelated/greedy.h"
#include "unrelated/rounding.h"

namespace setsched {

namespace {

using SupportsFn = bool (*)(const ProblemInput&);
using SolveFn = ScheduleResult (*)(const ProblemInput&, const SolverContext&);

/// Adapter turning a pair of free functions into a Solver. All built-in
/// algorithms are stateless, so this is the only implementation needed.
class FunctionSolver final : public Solver {
 public:
  FunctionSolver(std::string name, SupportsFn supports, SolveFn solve)
      : name_(std::move(name)), supports_(supports), solve_(solve) {}

  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] bool supports(const ProblemInput& input) const override {
    return supports_ == nullptr || supports_(input);
  }

  [[nodiscard]] ScheduleResult solve(const ProblemInput& input,
                                     const SolverContext& context) const override {
    check(supports(input), "solver '" + name_ +
                               "' does not support this instance "
                               "(structural precondition failed)");
    return solve_(input, context);
  }

 private:
  std::string name_;
  SupportsFn supports_;
  SolveFn solve_;
};

/// Re-evaluates the schedule on the matrix form so every solver's makespan
/// is computed by the same code path (makes results comparable and lets the
/// tests assert makespan consistency); LP-based solvers pass their effort
/// counters through.
ScheduleResult finish(const Instance& instance, Schedule schedule,
                      SolverStats stats = {}) {
  const double value = makespan(instance, schedule);
  return ScheduleResult{std::move(schedule), value, stats};
}

bool has_uniform(const ProblemInput& input) { return input.uniform.has_value(); }

bool is_restricted(const ProblemInput& input) {
  return is_restricted_class_uniform(input.instance);
}

bool is_class_uniform(const ProblemInput& input) {
  return is_class_uniform_processing(input.instance);
}

const lp::FaultPlan* armed_plan(const SolverContext& context) {
  return context.fault_plan.any() ? &context.fault_plan : nullptr;
}

/// Simplex knobs shared by every LP-based solver: the armed fault plan, and
/// the residual-audit guard on every solve when audits are on. Fault
/// injection without the guard would just propagate corruption, so arming
/// the plan turns the guard on no matter what the caller configured.
lp::SimplexOptions simplex_options(const SolverContext& context) {
  lp::SimplexOptions simplex;
  simplex.fault_plan = armed_plan(context);
  simplex.guard = context.lp_audit || context.fault_plan.any();
  return simplex;
}

RoundingOptions rounding_options(const SolverContext& context) {
  RoundingOptions options;
  options.seed = context.seed;
  options.search_precision = context.precision;
  options.lp = simplex_options(context);
  return options;
}

/// Stats carrying a solver result's effort counters.
SolverStats effort_stats(const EffortCounters& effort) {
  SolverStats stats;
  stats.effort() = effort;
  return stats;
}

/// One exact registry entry per (mode, bound) pair. Surfaces the exact
/// subsystem's result contract: a node/time-budget abort is visible
/// (proven_optimal false, positive gap) instead of masquerading as ground
/// truth, and the search effort counters ride along. The cold prove starts
/// from polished_start(), as the chain's prove phase does, and the polish is
/// charged to its time budget; the dive and the chain run as configured.
template <ExactMode kMode, BoundMode kBound>
ScheduleResult solve_exact_entry(const ProblemInput& input,
                                 const SolverContext& context) {
  ExactOptions options;
  options.mode = kMode;
  options.bound = kBound;
  options.time_limit_s = context.time_limit_s;
  if constexpr (kMode == ExactMode::kProve) {
    const Timer polish;
    options.initial_schedule = polished_start(input.instance);
    options.time_limit_s =
        std::max(0.0, context.time_limit_s - polish.elapsed_seconds());
  }
  options.simplex.fault_plan = armed_plan(context);
  const ExactResult result = solve_exact(input.instance, options);
  SolverStats stats = effort_stats(result);
  stats.proven_optimal = result.proven_optimal;
  stats.gap = result.gap;
  return finish(input.instance, result.schedule, stats);
}

void register_builtin_solvers(SolverRegistry& registry) {
  const auto add = [&registry](std::string name, SupportsFn supports,
                               SolveFn solve) {
    registry.add(name, [name, supports, solve] {
      return std::make_unique<FunctionSolver>(name, supports, solve);
    });
  };

  // -- Baselines (any instance) --------------------------------------------
  add("best-machine", nullptr,
      [](const ProblemInput& input, const SolverContext&) {
        return finish(input.instance, best_machine_schedule(input.instance));
      });
  add("greedy", nullptr, [](const ProblemInput& input, const SolverContext&) {
    return finish(input.instance, greedy_min_load(input.instance).schedule);
  });

  // -- Uniformly related machines (Section 2) ------------------------------
  add("lpt", has_uniform, [](const ProblemInput& input, const SolverContext&) {
    return finish(input.instance, lpt_with_placeholders(*input.uniform).schedule);
  });
  add("ptas", has_uniform,
      [](const ProblemInput& input, const SolverContext& context) {
        PtasOptions options;
        options.epsilon = context.epsilon;
        return finish(input.instance,
                      ptas_uniform(*input.uniform, options).schedule);
      });

  // -- Unrelated machines (Section 3.1) ------------------------------------
  add("assignment-lp", nullptr,
      [](const ProblemInput& input, const SolverContext& context) {
        ScheduleResult result = argmax_rounding(
            input.instance, context.precision, simplex_options(context));
        return finish(input.instance, std::move(result.schedule),
                      result.stats);
      });
  add("rounding", nullptr,
      [](const ProblemInput& input, const SolverContext& context) {
        const RoundingResult result =
            randomized_rounding(input.instance, rounding_options(context));
        return finish(input.instance, result.schedule, effort_stats(result));
      });
  add("colgen", nullptr,
      [](const ProblemInput& input, const SolverContext& context) {
        ConfigLpOptions config;
        config.pool = context.pool;
        config.simplex = simplex_options(context);
        const RoundingResult result = randomized_rounding_config(
            input.instance, rounding_options(context), config);
        return finish(input.instance, result.schedule, effort_stats(result));
      });

  // -- Special structures (Section 3.3) ------------------------------------
  add("restricted-2approx", is_restricted,
      [](const ProblemInput& input, const SolverContext& context) {
        const ConstantApproxResult result = two_approx_restricted(
            input.instance, context.precision, simplex_options(context));
        return finish(input.instance, result.schedule, effort_stats(result));
      });
  add("classuniform-3approx", is_class_uniform,
      [](const ProblemInput& input, const SolverContext& context) {
        const ConstantApproxResult result = three_approx_class_uniform(
            input.instance, context.precision, simplex_options(context));
        return finish(input.instance, result.schedule, effort_stats(result));
      });

  // -- Exact and improvement -----------------------------------------------
  add("exact", nullptr,
      solve_exact_entry<ExactMode::kProve, BoundMode::kAssignment>);
  // Configuration-LP bounds (exact/config_bound.h) on top of the assignment
  // probes, riding the dive-then-prove chain: the polished dive incumbent
  // tightens the cutoff the config-LP root bisection works against, and the
  // fine-grid root pass pushes the certified bound past what the assignment
  // LP can see. kAuto demotes the per-node pricing back to assignment-only
  // when it is not earning its keep, so the solver is never worse than
  // `dive-then-prove` by more than the root bisection's cost.
  add("branch-and-price", nullptr,
      solve_exact_entry<ExactMode::kDiveThenProve, BoundMode::kAuto>);
  add("exact-dive", nullptr,
      solve_exact_entry<ExactMode::kDive, BoundMode::kAssignment>);
  add("dive-then-prove", nullptr,
      solve_exact_entry<ExactMode::kDiveThenProve, BoundMode::kAssignment>);
  add("local-search", nullptr,
      [](const ProblemInput& input, const SolverContext&) {
        const ScheduleResult start = greedy_min_load(input.instance);
        const LocalSearchResult improved =
            local_search(input.instance, start.schedule);
        return finish(input.instance, improved.schedule);
      });
}

}  // namespace

SolverRegistry& SolverRegistry::global() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    register_builtin_solvers(*r);
    return r;
  }();
  return *registry;
}

void SolverRegistry::add(std::string name, Factory factory) {
  check(!name.empty(), "solver name must be non-empty");
  check(static_cast<bool>(factory), "solver factory must be callable");
  const auto [it, inserted] = factories_.emplace(std::move(name), std::move(factory));
  check(inserted, "duplicate solver name '" + it->first + "'");
}

bool SolverRegistry::contains(std::string_view name) const {
  return factories_.find(name) != factories_.end();
}

std::unique_ptr<Solver> SolverRegistry::create(std::string_view name) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::ostringstream os;
    os << "unknown solver '" << name << "'; registered:";
    for (const auto& [known, factory] : factories_) os << ' ' << known;
    check(false, os.str());
  }
  return it->second();
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) result.push_back(name);
  return result;  // std::map iterates in sorted order
}

}  // namespace setsched
