#include "unrelated/rounding.h"

#include <algorithm>
#include <cmath>

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

void round_once(const Instance& instance,
                const FractionalAssignment& fractional, std::uint64_t seed,
                RoundingResult* out) {
  const auto n = static_cast<double>(
      std::max<std::size_t>(instance.num_jobs(), 2));
  out->rounds = static_cast<std::size_t>(
      std::max(1.0, std::ceil(kRoundingC * std::log2(n))));
  out->schedule = round_fractional(instance, fractional, out->rounds,
                                   Xoshiro256(seed)(), &out->fallback_jobs);
  out->makespan = makespan(instance, out->schedule);
}

RoundingResult randomized_rounding(const Instance& instance,
                                   const RoundingOptions& options) {
  instance.validate();
  const LpSearchResult lp =
      search_assignment_lp(instance, options.search_precision, options.lp);

  RoundingResult out;
  out.lp_T = lp.feasible_T;
  out.lp_lower_bound = lp.lower_bound;
  out.effort() = lp.effort();
  round_once(instance, lp.fractional, options.seed, &out);
  return out;
}

ScheduleResult argmax_rounding(const Instance& instance,
                               double search_precision,
                               const lp::SimplexOptions& simplex) {
  const LpSearchResult lp =
      search_assignment_lp(instance, search_precision, simplex);
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
