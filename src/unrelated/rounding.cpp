#include "unrelated/rounding.h"

#include <algorithm>
#include <cmath>

#include "common/annotations.h"
#include "common/check.h"
#include "common/prng.h"

namespace setsched {

Schedule round_fractional(const Instance& instance,
                          const FractionalAssignment& fractional,
                          std::size_t rounds, std::uint64_t seed,
                          std::size_t* fallback_jobs) {
  const std::size_t n = instance.num_jobs();
  const std::size_t m = instance.num_machines();
  const std::size_t kc = instance.num_classes();
  const auto by_class = instance.jobs_by_class();

  Xoshiro256 rng(seed);
  Schedule schedule = Schedule::empty(n);
  std::size_t assigned = 0;

  for (std::size_t h = 0; h < rounds && assigned < n; ++h) {
    for (MachineId i = 0; i < m; ++i) {
      for (ClassId k = 0; k < kc; ++k) {
        const double yik = fractional.y(i, k);
        if (yik <= 0.0) continue;
        // Step 1: open the setup with probability y*_ik...
        if (!rng.next_bernoulli(yik)) continue;
        // ...then assign each job of the class with probability x*/y*.
        for (const JobId j : by_class[k]) {
          const double xij = fractional.x(i, j);
          if (xij <= 0.0) continue;
          if (!rng.next_bernoulli(xij / yik)) continue;
          // Step 4 (dedup): keep the first machine that sampled this job.
          if (schedule.assignment[j] == kUnassigned) {
            schedule.assignment[j] = i;
            ++assigned;
          }
        }
      }
    }
  }

  // Step 3: fallback for jobs never sampled.
  std::size_t fallback = 0;
  for (JobId j = 0; j < n; ++j) {
    if (schedule.assignment[j] != kUnassigned) continue;
    ++fallback;
    double best = kInfinity;
    MachineId arg = kUnassigned;
    for (MachineId i = 0; i < m; ++i) {
      if (!instance.eligible(i, j)) continue;
      if (instance.proc(i, j) < best) {
        best = instance.proc(i, j);
        arg = i;
      }
    }
    check(arg != kUnassigned, "job has no eligible machine");
    schedule.assignment[j] = arg;
  }
  if (fallback_jobs != nullptr) *fallback_jobs = fallback;
  return schedule;
}

RoundingResult randomized_rounding(const Instance& instance,
                                   const RoundingOptions& options) {
  instance.validate();
  check(options.trials >= 1, "need at least one trial");
  const std::size_t n = instance.num_jobs();

  const LpSearchResult lp =
      search_assignment_lp(instance, options.search_precision, options.lp);

  const std::size_t rounds = static_cast<std::size_t>(std::max(
      1.0, std::ceil(kRoundingC * std::log2(static_cast<double>(std::max<std::size_t>(n, 2))))));

  RoundingResult out;
  out.lp_T = lp.feasible_T;
  out.lp_lower_bound = lp.lower_bound;
  out.rounds = rounds;
  out.effort() = lp.effort();

  Xoshiro256 seeder(options.seed);
  std::vector<std::uint64_t> trial_seeds(options.trials);
  for (auto& s : trial_seeds) s = seeder();

  /// Cross-trial reduction state; trials run concurrently on options.pool,
  /// so everything below is guarded (and the guard is compiler-checked).
  struct BestState {
    Mutex m;
    double best_makespan GUARDED_BY(m) = kInfinity;
    Schedule best_schedule GUARDED_BY(m);
    std::size_t total_fallback GUARDED_BY(m) = 0;
  } best;
  {
    const MutexLock lock(best.m);
    best.best_schedule = Schedule::empty(n);
  }

  const auto run_trial = [&](std::size_t t) {
    std::size_t fallback = 0;
    Schedule s =
        round_fractional(instance, lp.fractional, rounds, trial_seeds[t], &fallback);
    const double ms = makespan(instance, s);
    const MutexLock lock(best.m);
    best.total_fallback += fallback;
    if (ms < best.best_makespan) {
      best.best_makespan = ms;
      best.best_schedule = std::move(s);
    }
  };

  if (options.pool != nullptr && options.trials > 1) {
    options.pool->parallel_for(0, options.trials, run_trial);
  } else {
    for (std::size_t t = 0; t < options.trials; ++t) run_trial(t);
  }

  // The fork-join above has completed; the lock makes that visible to the
  // analysis (and costs nothing contended).
  const MutexLock lock(best.m);
  out.schedule = std::move(best.best_schedule);
  out.makespan = best.best_makespan;
  out.fallback_jobs = best.total_fallback;
  return out;
}

ScheduleResult argmax_rounding(const Instance& instance,
                               double search_precision,
                               const AssignmentLpOptions& options) {
  const LpSearchResult lp =
      search_assignment_lp(instance, search_precision, options);
  Schedule schedule = Schedule::empty(instance.num_jobs());
  for (JobId j = 0; j < instance.num_jobs(); ++j) {
    double best_x = -1.0;
    for (MachineId i = 0; i < instance.num_machines(); ++i) {
      if (!instance.eligible(i, j)) continue;
      if (lp.fractional.x(i, j) > best_x) {
        best_x = lp.fractional.x(i, j);
        schedule.assignment[j] = i;
      }
    }
  }
  SolverStats stats;
  stats.effort() = lp.effort();
  return {schedule, makespan(instance, schedule), stats};
}

}  // namespace setsched
