#include "uniform/lpt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace setsched {

namespace {

/// Runs plain LPT over abstract items (sizes + ids); returns per-item machine.
/// Finishing time of an item of size p on machine i is (load_i + p) / v_i.
std::vector<MachineId> lpt_items(const std::vector<double>& sizes,
                                 const std::vector<double>& speed) {
  std::vector<std::size_t> order(sizes.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sizes[a] > sizes[b];
  });

  std::vector<double> load(speed.size(), 0.0);  // in size units
  std::vector<MachineId> out(sizes.size(), kUnassigned);
  for (const std::size_t item : order) {
    MachineId best = 0;
    double best_finish = kInfinity;
    for (MachineId i = 0; i < speed.size(); ++i) {
      const double finish = (load[i] + sizes[item]) / speed[i];
      if (finish < best_finish) {
        best_finish = finish;
        best = i;
      }
    }
    load[best] += sizes[item];
    out[item] = best;
  }
  return out;
}

}  // namespace

ScheduleResult lpt_with_placeholders(const UniformInstance& instance) {
  instance.validate();
  const std::size_t n = instance.num_jobs();

  // Item list: every job with p_j >= s_k stays itself; smaller jobs of class
  // k are merged into ceil(sum / s_k) placeholders of size s_k each.
  std::vector<double> item_size;
  std::vector<JobId> item_job;          // n-sized items -> original job
  std::vector<ClassId> item_class;      // parallel to item_size
  std::vector<bool> item_is_placeholder;

  const auto by_class = instance.jobs_by_class();
  std::vector<std::vector<JobId>> small_jobs(instance.num_classes());

  for (JobId j = 0; j < n; ++j) {
    const ClassId k = instance.job_class[j];
    if (instance.job_size[j] < instance.setup_size[k]) {
      small_jobs[k].push_back(j);
    } else {
      item_size.push_back(instance.job_size[j]);
      item_job.push_back(j);
      item_class.push_back(k);
      item_is_placeholder.push_back(false);
    }
  }
  for (ClassId k = 0; k < instance.num_classes(); ++k) {
    if (small_jobs[k].empty()) continue;
    double total = 0.0;
    for (const JobId j : small_jobs[k]) total += instance.job_size[j];
    const double sk = instance.setup_size[k];
    std::size_t count = 1;
    if (sk > 0.0) {
      count = static_cast<std::size_t>(std::ceil(total / sk));
      count = std::max<std::size_t>(count, 1);
    }
    for (std::size_t c = 0; c < count; ++c) {
      item_size.push_back(sk);
      item_job.push_back(kUnassigned);  // placeholder
      item_class.push_back(k);
      item_is_placeholder.push_back(true);
    }
  }

  const auto item_machine = lpt_items(item_size, instance.speed);

  Schedule schedule = Schedule::empty(n);
  // Regular items keep their machine.
  for (std::size_t t = 0; t < item_size.size(); ++t) {
    if (!item_is_placeholder[t]) schedule.assignment[item_job[t]] = item_machine[t];
  }

  // Unpack placeholders: per class, each machine's placeholder slots form a
  // pooled capacity of (#slots * s_k); small jobs fill machines greedily,
  // over-packing each machine by at most one job (as in the Lemma 2.1 proof).
  for (ClassId k = 0; k < instance.num_classes(); ++k) {
    if (small_jobs[k].empty()) continue;
    // Count slots per machine, in machine order.
    std::vector<std::size_t> slots(instance.num_machines(), 0);
    for (std::size_t t = 0; t < item_size.size(); ++t) {
      if (item_is_placeholder[t] && item_class[t] == k) ++slots[item_machine[t]];
    }
    const double sk = instance.setup_size[k];
    std::size_t job_pos = 0;
    for (MachineId i = 0; i < instance.num_machines() && job_pos < small_jobs[k].size(); ++i) {
      if (slots[i] == 0) continue;
      const double capacity = static_cast<double>(slots[i]) * sk;
      double used = 0.0;
      while (job_pos < small_jobs[k].size() && used < capacity) {
        const JobId j = small_jobs[k][job_pos++];
        schedule.assignment[j] = i;
        used += instance.job_size[j];
      }
      // Degenerate zero setup sizes: capacity 0 would strand jobs; place one.
      if (capacity == 0.0 && job_pos < small_jobs[k].size()) {
        schedule.assignment[small_jobs[k][job_pos++]] = i;
      }
    }
    // If capacities were exhausted before all jobs were placed (possible only
    // through floating-point slack or zero setups), put leftovers on the
    // machine with the most slots.
    if (job_pos < small_jobs[k].size()) {
      MachineId fallback = 0;
      for (MachineId i = 1; i < instance.num_machines(); ++i) {
        if (slots[i] > slots[fallback]) fallback = i;
      }
      while (job_pos < small_jobs[k].size()) {
        schedule.assignment[small_jobs[k][job_pos++]] = fallback;
      }
    }
  }

  check(schedule.complete(), "LPT left a job unassigned");
  return {schedule, makespan(instance, schedule), {}};
}

}  // namespace setsched
