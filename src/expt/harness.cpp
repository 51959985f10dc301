#include "expt/harness.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <utility>

#include "api/presets.h"
#include "api/registry.h"
#include "common/annotations.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/schedule.h"
#include "lp/fault.h"
#include "obs/phase.h"
#include "obs/trace.h"

namespace setsched::expt {

namespace {

/// One (preset, seed) point of the instance grid: the generated input plus
/// its lower bound, computed once and shared by all solver cells of the row.
struct GridPoint {
  ProblemInput input;
  double lower_bound = 0.0;
};

RunRecord run_cell(const ExperimentPlan& plan, const CellKey& key,
                   const GridPoint& point) {
  const std::string& solver_name = plan.solvers[key.solver];
  const std::string& preset_name = plan.presets[key.preset];

  RunRecord record;
  record.solver = solver_name;
  record.preset = preset_name;
  record.seed = key.seed;
  record.cell_seed = cell_seed(preset_name, key.seed, solver_name);
  record.num_jobs = point.input.instance.num_jobs();
  record.num_machines = point.input.instance.num_machines();
  record.num_classes = point.input.instance.num_classes();
  record.epsilon = plan.epsilon;
  record.precision = plan.precision;
  record.time_limit_s = plan.time_limit_s;

  SolverContext context;
  context.seed = record.cell_seed;
  context.epsilon = plan.epsilon;
  context.precision = plan.precision;
  context.time_limit_s = plan.time_limit_s;
  context.lp_audit = plan.lp_audit;
  // Each cell gets its own injection stream keyed on cell_seed, so a sweep
  // corrupts the same solves no matter how cells are scheduled.
  if (!plan.inject.empty()) {
    context.fault_plan = lp::FaultPlan::parse(plan.inject, record.cell_seed);
  }
  // Cells are the unit of parallelism; solvers must not nest into the pool
  // that is running them (same rule as setsched_cli --all). Phase accounting
  // is thread-local, so with no pool the delta across solve() is the cell's
  // complete breakdown.
  context.pool = nullptr;

  return validated_solve(*SolverRegistry::global().create(solver_name),
                         point.input, context, point.lower_bound,
                         plan.record_timing, std::move(record));
}

}  // namespace

RunRecord validated_solve(const Solver& solver, const ProblemInput& input,
                          const SolverContext& context, double lower_bound,
                          bool record_timing, RunRecord record) {
  record.lower_bound = lower_bound;
  try {
    if (!solver.supports(input)) {
      record.status = RunStatus::kSkipped;
      return record;
    }
    // One solve span, named by the solver. Constructed only when a trace is
    // live so the name-interning mutex is never touched otherwise.
    std::optional<obs::TraceSpan> span;
    if (obs::trace_enabled()) {
      span.emplace(obs::intern(solver.name()), "solve");
      if (!record.preset.empty()) {
        span->set_arg("preset", obs::intern(record.preset));
        span->set_arg("seed", static_cast<double>(record.seed));
      }
    }
    const obs::PhaseTimes phases_before = obs::phase_snapshot();
    const Timer timer;
    const ScheduleResult result = solver.solve(input, context);
    if (record_timing) {
      record.time_ms = timer.elapsed_ms();
      record.phase_ms = obs::phase_snapshot() - phases_before;
    }
    if (const auto error = schedule_error(input.instance, result.schedule)) {
      record.status = RunStatus::kInvalid;
      record.error = "invalid schedule: " + *error;
      return record;
    }
    const double evaluated = makespan(input.instance, result.schedule);
    if (std::abs(evaluated - result.makespan) >
        1e-9 * std::max(1.0, evaluated)) {
      record.status = RunStatus::kInvalid;
      record.error = "reported makespan disagrees with schedule";
      return record;
    }
    record.status = RunStatus::kOk;
    record.makespan = result.makespan;
    record.ratio = lower_bound > 0.0 ? result.makespan / lower_bound : 1.0;
    record.setups = total_setups(input.instance, result.schedule);
    record.effort() = result.stats.effort();
    record.proven_optimal = result.stats.proven_optimal;
    record.gap = result.stats.gap;
  } catch (const std::exception& e) {
    record.status = RunStatus::kError;
    record.error = e.what();
  }
  return record;
}

std::vector<RunRecord> run_experiment(const ExperimentPlan& plan,
                                      const ProgressFn& progress) {
  plan.validate();

  // Phase timers ride the timing flag: --no-timing sweeps keep the LP hot
  // loop free of clock reads (and their JSONL byte-identical with a
  // SETSCHED_DISABLE_OBS build, which CI asserts).
  obs::set_timing_enabled(plan.record_timing);

  // Private pool when the plan pins a thread count; the shared default pool
  // otherwise. threads == 1 bypasses pools entirely (exercised by the
  // determinism tests as the sequential reference).
  std::optional<ThreadPool> own_pool;
  ThreadPool* pool = nullptr;
  if (plan.threads == 0) {
    pool = &default_pool();
  } else if (plan.threads > 1) {
    pool = &own_pool.emplace(plan.threads);
  }
  const auto for_each = [pool](std::size_t count, auto&& body) {
    if (pool == nullptr) {
      for (std::size_t i = 0; i < count; ++i) body(i);
    } else {
      pool->parallel_for(0, count, body);
    }
  };

  // Phase 1: materialize the instance grid, one point per (preset, seed).
  // Generation keys on (preset, seed) only, so the grid is identical no
  // matter how the points are scheduled.
  const std::size_t num_seeds = plan.num_seeds();
  std::vector<std::optional<GridPoint>> points(plan.num_points());
  for_each(points.size(), [&](std::size_t p) {
    const std::string& preset = plan.presets[p / num_seeds];
    const std::uint64_t seed = plan.seed_begin + p % num_seeds;
    GridPoint point{generate_preset(preset, seed), 0.0};
    point.lower_bound = lower_bound(point.input);
    points[p].emplace(std::move(point));
  });

  // Phase 2: run the cells, one stolen at a time, each into its own slot
  // (slot-exclusive writes; the records vector itself needs no guard). The
  // completed-cell tally feeding the progress hook is the one piece of
  // genuinely shared aggregation state, so it is mutex-guarded and
  // compiler-checked (common/annotations.h).
  struct ProgressState {
    Mutex m;
    std::size_t done GUARDED_BY(m) = 0;
  } tally;
  std::vector<RunRecord> records(plan.num_cells());
  for_each(records.size(), [&](std::size_t c) {
    const CellKey key = cell_key(plan, c);
    records[c] = run_cell(plan, key, *points[key.point]);
    if (progress) {
      const MutexLock lock(tally.m);
      progress(++tally.done, records.size());
    }
  });
  return records;
}

}  // namespace setsched::expt
