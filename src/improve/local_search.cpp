#include "improve/local_search.h"

#include <algorithm>

#include "common/check.h"

namespace setsched {

namespace {

/// Stop after this many consecutive non-improving sweeps.
constexpr std::size_t kPatience = 2;
/// Hard cap on full improvement sweeps.
constexpr std::size_t kMaxSweeps = 60;

/// Incremental load tracker: machine loads plus per-(machine, class) job
/// counts so that removing the last job of a class refunds its setup.
class LoadTracker {
 public:
  LoadTracker(const Instance& inst, const Schedule& schedule)
      : inst_(inst),
        load_(inst.num_machines(), 0.0),
        class_jobs_(inst.num_machines() * inst.num_classes(), 0) {
    for (JobId j = 0; j < inst.num_jobs(); ++j) {
      add_job(j, schedule.assignment[j]);
    }
  }

  void add_job(JobId j, MachineId i) {
    const ClassId k = inst_.job_class(j);
    auto& count = class_jobs_[i * inst_.num_classes() + k];
    load_[i] += inst_.proc(i, j);
    if (count == 0) load_[i] += inst_.setup(i, k);
    ++count;
  }

  void remove_job(JobId j, MachineId i) {
    const ClassId k = inst_.job_class(j);
    auto& count = class_jobs_[i * inst_.num_classes() + k];
    load_[i] -= inst_.proc(i, j);
    if (--count == 0) load_[i] -= inst_.setup(i, k);
  }

  [[nodiscard]] double load(MachineId i) const { return load_[i]; }

  [[nodiscard]] double makespan() const {
    return *std::max_element(load_.begin(), load_.end());
  }

  /// Σ load², the balance tie-breaker.
  [[nodiscard]] double potential() const {
    double p = 0.0;
    for (const double l : load_) p += l * l;
    return p;
  }

 private:
  const Instance& inst_;
  std::vector<double> load_;
  std::vector<std::int32_t> class_jobs_;
};

struct Score {
  double makespan;
  double potential;
  [[nodiscard]] bool better_than(const Score& o) const {
    if (makespan < o.makespan - 1e-12) return true;
    if (makespan > o.makespan + 1e-12) return false;
    return potential < o.potential - 1e-9;
  }
};

Score score_of(const LoadTracker& t) { return {t.makespan(), t.potential()}; }

}  // namespace

LocalSearchResult local_search(const Instance& instance,
                               const Schedule& start) {
  check(!schedule_error(instance, start).has_value(),
        "local search requires a complete valid schedule");
  const std::size_t n = instance.num_jobs();
  const std::size_t m = instance.num_machines();

  Schedule schedule = start;
  LoadTracker tracker(instance, schedule);
  Score current = score_of(tracker);

  LocalSearchResult out;
  std::size_t stale = 0;

  const auto by_class = instance.jobs_by_class();

  for (std::size_t sweep = 0; sweep < kMaxSweeps && stale < kPatience;
       ++sweep) {
    ++out.sweeps;
    bool improved = false;

    // --- single-job moves ---
    for (JobId j = 0; j < n; ++j) {
      const MachineId from = schedule.assignment[j];
      for (MachineId to = 0; to < m; ++to) {
        if (to == from || !instance.eligible(to, j)) continue;
        tracker.remove_job(j, from);
        tracker.add_job(j, to);
        const Score candidate = score_of(tracker);
        if (candidate.better_than(current)) {
          schedule.assignment[j] = to;
          current = candidate;
          ++out.moves_applied;
          improved = true;
          break;  // job moved; continue with the next job
        }
        tracker.remove_job(j, to);
        tracker.add_job(j, from);
      }
    }

    // --- pairwise swaps ---
    for (JobId a = 0; a < n; ++a) {
      for (JobId b = a + 1; b < n; ++b) {
        const MachineId ia = schedule.assignment[a];
        const MachineId ib = schedule.assignment[b];
        if (ia == ib) continue;
        if (!instance.eligible(ib, a) || !instance.eligible(ia, b)) continue;
        tracker.remove_job(a, ia);
        tracker.remove_job(b, ib);
        tracker.add_job(a, ib);
        tracker.add_job(b, ia);
        const Score candidate = score_of(tracker);
        if (candidate.better_than(current)) {
          std::swap(schedule.assignment[a], schedule.assignment[b]);
          current = candidate;
          ++out.moves_applied;
          improved = true;
        } else {
          tracker.remove_job(a, ib);
          tracker.remove_job(b, ia);
          tracker.add_job(a, ia);
          tracker.add_job(b, ib);
        }
      }
    }

    // --- whole-class batch moves ---
    for (ClassId k = 0; k < instance.num_classes(); ++k) {
      if (by_class[k].empty()) continue;
      for (MachineId to = 0; to < m; ++to) {
        bool eligible = true;
        for (const JobId j : by_class[k]) {
          if (!instance.eligible(to, j)) {
            eligible = false;
            break;
          }
        }
        if (!eligible) continue;
        std::vector<MachineId> old_home(by_class[k].size());
        bool any_moved = false;
        for (std::size_t t = 0; t < by_class[k].size(); ++t) {
          const JobId j = by_class[k][t];
          old_home[t] = schedule.assignment[j];
          if (old_home[t] != to) {
            any_moved = true;
            tracker.remove_job(j, old_home[t]);
            tracker.add_job(j, to);
          }
        }
        if (!any_moved) continue;
        const Score candidate = score_of(tracker);
        if (candidate.better_than(current)) {
          for (const JobId j : by_class[k]) schedule.assignment[j] = to;
          current = candidate;
          ++out.moves_applied;
          improved = true;
        } else {
          for (std::size_t t = 0; t < by_class[k].size(); ++t) {
            const JobId j = by_class[k][t];
            if (old_home[t] != to) {
              tracker.remove_job(j, to);
              tracker.add_job(j, old_home[t]);
            }
          }
        }
      }
    }

    stale = improved ? 0 : stale + 1;
  }

  out.makespan = makespan(instance, schedule);
  out.schedule = std::move(schedule);
  return out;
}

}  // namespace setsched
