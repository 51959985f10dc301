#include "unrelated/greedy.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace setsched {

ScheduleResult greedy_min_load(const Instance& instance) {
  instance.validate();
  const std::size_t n = instance.num_jobs();
  const std::size_t m = instance.num_machines();
  const std::size_t kc = instance.num_classes();

  std::vector<double> cheapest(n, kInfinity);
  for (JobId j = 0; j < n; ++j) {
    for (MachineId i = 0; i < m; ++i) {
      if (instance.eligible(i, j)) {
        cheapest[j] = std::min(cheapest[j], instance.proc(i, j));
      }
    }
  }
  std::vector<JobId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](JobId a, JobId b) { return cheapest[a] > cheapest[b]; });

  std::vector<double> load(m, 0.0);
  std::vector<char> has_class(m * kc, 0);
  Schedule schedule = Schedule::empty(n);
  for (const JobId j : order) {
    const ClassId k = instance.job_class(j);
    MachineId best = kUnassigned;
    double best_load = kInfinity;
    for (MachineId i = 0; i < m; ++i) {
      if (!instance.eligible(i, j)) continue;
      const double setup = has_class[i * kc + k] ? 0.0 : instance.setup(i, k);
      const double new_load = load[i] + instance.proc(i, j) + setup;
      if (new_load < best_load) {
        best_load = new_load;
        best = i;
      }
    }
    check(best != kUnassigned, "job has no eligible machine");
    schedule.assignment[j] = best;
    load[best] = best_load;
    has_class[best * kc + k] = 1;
  }
  return {schedule, makespan(instance, schedule), {}};
}

}  // namespace setsched
