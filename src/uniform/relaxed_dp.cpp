#include "uniform/relaxed_dp.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "common/check.h"

namespace setsched {

namespace {

constexpr double kTinySlack = 1e-9;

std::uint64_t bits_of(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Canonical multiset of machine slots of the current group.
struct Slot {
  double speed = 0.0;
  double load = 0.0;
  std::uint8_t zeta = 0;
  std::uint32_t count = 0;

  [[nodiscard]] bool same_kind(const Slot& o) const {
    return speed == o.speed && load == o.load && zeta == o.zeta;
  }
  [[nodiscard]] bool operator<(const Slot& o) const {
    if (speed != o.speed) return speed < o.speed;
    if (load != o.load) return load < o.load;
    return zeta < o.zeta;
  }
};

/// Pending jobs of the current batch: size -> multiplicity, sizes descending.
struct Pending {
  double size = 0.0;
  std::uint32_t count = 0;
};

struct State {
  std::int32_t group = 0;
  std::int32_t batch = 0;  // index into the group's batch list
  std::uint8_t xi = 0;
  std::vector<Pending> pending;  // sorted by size descending
  std::vector<Slot> slots;       // sorted canonical
  double l1 = 0.0, l2 = 0.0, l3 = 0.0;

  [[nodiscard]] std::vector<std::uint64_t> key() const {
    std::vector<std::uint64_t> k;
    k.reserve(5 + 2 * pending.size() + 4 * slots.size());
    k.push_back((static_cast<std::uint64_t>(static_cast<std::uint32_t>(group)) << 32) |
                static_cast<std::uint32_t>(batch));
    k.push_back(xi);
    k.push_back(bits_of(l1));
    k.push_back(bits_of(l2));
    k.push_back(bits_of(l3));
    for (const Pending& p : pending) {
      k.push_back(bits_of(p.size));
      k.push_back(p.count);
    }
    k.push_back(0xFFFFFFFFFFFFFFFFULL);  // separator
    for (const Slot& s : slots) {
      k.push_back(bits_of(s.speed));
      k.push_back(bits_of(s.load));
      k.push_back(s.zeta);
      k.push_back(s.count);
    }
    return k;
  }
};

struct KeyHash {
  std::size_t operator()(const std::vector<std::uint64_t>& k) const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const std::uint64_t w : k) {
      h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

/// One batch of jobs processed together inside a group.
struct Batch {
  bool dummy = false;  ///< fringe batch (no setups)
  ClassId cls = 0;     ///< class of a core batch
  double setup = 0.0;
  bool class_has_fringe = false;
  std::vector<Pending> sizes;                        // descending
  std::map<double, std::vector<JobId>, std::greater<>> jobs_by_size;
};

struct Decision {
  enum class Kind : std::uint8_t {
    kRoot,
    kPlace,       // place largest pending job on a slot (no setup)
    kPlaceSetup,  // place largest pending job on a slot, paying the setup
    kFractional,  // declare largest pending job fractional
    kNextBatch,
    kNextGroup,
  };
  Kind kind = Kind::kRoot;
  double size = 0.0;
  double speed = 0.0;
  double load = 0.0;  // slot load before placement
  std::uint8_t zeta = 0;
};

struct Node {
  std::int64_t parent = -1;
  Decision decision;
};

class DpSolver {
 public:
  DpSolver(const UniformInstance& inst, const GroupStructure& groups,
           std::size_t max_states)
      : inst_(inst), groups_(groups), max_states_(max_states) {}

  RelaxedDpResult run();

 private:
  bool prepare(RelaxedDpResult& out);  // false => early infeasible
  void build_batches();
  [[nodiscard]] State initial_state() const;
  void expand(const State& state, std::int64_t node_index);
  std::int64_t intern(State&& state, std::int64_t parent, Decision decision);
  [[nodiscard]] bool is_end_state(const State& state) const;
  [[nodiscard]] RelaxedSchedule replay(std::int64_t end_node) const;

  // --- static problem data ---
  const UniformInstance& inst_;
  GroupStructure groups_;
  std::size_t max_states_;
  int max_group_ = 0;  // G
  std::vector<int> machine_lower_;               // L(i)
  std::vector<std::vector<MachineId>> enter_at_; // machines entering group g
  std::vector<std::vector<Batch>> batches_;      // per group
  std::vector<char> class_has_fringe_;
  // Fractional-from-the-start jobs (native/core group < 0), by group.
  std::map<int, std::vector<JobId>> preassigned_fractional_;
  double init_l2_ = 0.0, init_l3_ = 0.0;
  bool infeasible_upfront_ = false;

  // --- search state ---
  std::unordered_map<std::vector<std::uint64_t>, std::int64_t, KeyHash> seen_;
  std::vector<Node> nodes_;
  std::vector<State> states_;
  std::deque<std::int64_t> queue_;
  std::int64_t end_node_ = -1;
};

bool DpSolver::prepare(RelaxedDpResult& out) {
  const double T = groups_.T();
  const std::size_t kc = inst_.num_classes();

  machine_lower_.resize(inst_.num_machines());
  max_group_ = 0;
  for (MachineId i = 0; i < inst_.num_machines(); ++i) {
    machine_lower_[i] = groups_.machine_lower_group(inst_.speed[i]);
    check(machine_lower_[i] >= 1, "machine below group 0");
    max_group_ = std::max(max_group_, machine_lower_[i]);
  }
  enter_at_.assign(max_group_ + 1, {});
  for (MachineId i = 0; i < inst_.num_machines(); ++i) {
    enter_at_[machine_lower_[i] - 1].push_back(i);
  }

  class_has_fringe_.assign(kc, 0);
  for (JobId j = 0; j < inst_.num_jobs(); ++j) {
    const ClassId k = inst_.job_class[j];
    if (groups_.is_fringe_job(inst_.job_size[j], inst_.setup_size[k])) {
      class_has_fringe_[k] = 1;
    }
  }

  // Sort jobs into batches / preassigned fractional / early rejects.
  build_batches();
  if (infeasible_upfront_) {
    out.status = DpStatus::kInfeasible;
    return false;
  }

  // Initial λ from negative groups: W_{-1} -> l2, everything older -> l3.
  std::vector<char> class_counted(kc, 0);
  for (const auto& [g, jobs] : preassigned_fractional_) {
    double w = 0.0;
    for (const JobId j : jobs) {
      w += inst_.job_size[j];
      const ClassId k = inst_.job_class[j];
      // One setup per fringe-less class with fractional core jobs.
      const bool fringe_job =
          groups_.is_fringe_job(inst_.job_size[j], inst_.setup_size[k]);
      if (!fringe_job && !class_has_fringe_[k] && !class_counted[k]) {
        class_counted[k] = 1;
        w += inst_.setup_size[k];
      }
    }
    if (g == -1) {
      init_l2_ += w;
    } else {
      init_l3_ += w;
    }
  }
  (void)T;
  return true;
}

void DpSolver::build_batches() {
  const std::size_t kc = inst_.num_classes();
  batches_.assign(max_group_ + 1, {});

  // Group jobs: fringe jobs by native group; core jobs by class.
  std::vector<std::vector<JobId>> fringe_of_group(max_group_ + 1);
  std::vector<std::vector<JobId>> core_of_class(kc);

  for (JobId j = 0; j < inst_.num_jobs(); ++j) {
    const ClassId k = inst_.job_class[j];
    const double p = inst_.job_size[j];
    if (groups_.is_fringe_job(p, inst_.setup_size[k])) {
      const int g = groups_.native_group(p);
      if (g > max_group_) {
        infeasible_upfront_ = true;  // huge for every machine
        return;
      }
      if (g < 0) {
        preassigned_fractional_[g].push_back(j);
      } else {
        fringe_of_group[g].push_back(j);
      }
    } else {
      core_of_class[k].push_back(j);
    }
  }

  // Core jobs follow their class's core group.
  std::vector<std::vector<ClassId>> classes_of_group(max_group_ + 1);
  for (ClassId k = 0; k < kc; ++k) {
    if (core_of_class[k].empty()) continue;
    const int g = groups_.core_group(inst_.setup_size[k]);
    if (g > max_group_) {
      // Setup does not fit on any machine: jobs of this class cannot run.
      infeasible_upfront_ = true;
      return;
    }
    if (g < 0) {
      auto& list = preassigned_fractional_[g];
      list.insert(list.end(), core_of_class[k].begin(), core_of_class[k].end());
    } else {
      classes_of_group[g].push_back(k);
    }
  }

  const auto make_sizes = [&](const std::vector<JobId>& jobs, Batch& batch) {
    for (const JobId j : jobs) {
      batch.jobs_by_size[inst_.job_size[j]].push_back(j);
    }
    for (const auto& [size, list] : batch.jobs_by_size) {
      batch.sizes.push_back(
          {size, static_cast<std::uint32_t>(list.size())});
    }
  };

  for (int g = 0; g <= max_group_; ++g) {
    if (!fringe_of_group[g].empty()) {
      Batch batch;
      batch.dummy = true;
      make_sizes(fringe_of_group[g], batch);
      batches_[g].push_back(std::move(batch));
    }
    for (const ClassId k : classes_of_group[g]) {
      Batch batch;
      batch.dummy = false;
      batch.cls = k;
      batch.setup = inst_.setup_size[k];
      batch.class_has_fringe = class_has_fringe_[k] != 0;
      make_sizes(core_of_class[k], batch);
      batches_[g].push_back(std::move(batch));
    }
  }
}

State DpSolver::initial_state() const {
  State s;
  s.group = 0;
  s.batch = 0;
  s.l2 = init_l2_;
  s.l3 = init_l3_;

  // Machines active in group 0: those entering at 0 (L = 1).
  std::vector<Slot> slots;
  for (const MachineId i : enter_at_[0]) {
    Slot slot{inst_.speed[i], 0.0, 0, 1};
    auto it = std::find_if(slots.begin(), slots.end(),
                           [&](const Slot& o) { return o.same_kind(slot); });
    if (it == slots.end()) {
      slots.push_back(slot);
    } else {
      ++it->count;
    }
  }
  std::sort(slots.begin(), slots.end());
  s.slots = std::move(slots);

  if (!batches_.empty() && !batches_[0].empty()) {
    s.pending = batches_[0][0].sizes;
  }
  return s;
}

bool DpSolver::is_end_state(const State& s) const {
  if (s.group != max_group_ + 1) return false;
  if (s.l1 > kTinySlack || s.l2 > kTinySlack) return false;
  return s.l3 <= kTinySlack;  // absorption already applied at the transition
}

std::int64_t DpSolver::intern(State&& state, std::int64_t parent,
                              Decision decision) {
  auto key = state.key();
  const auto [it, inserted] = seen_.try_emplace(std::move(key),
                                                static_cast<std::int64_t>(nodes_.size()));
  if (!inserted) return -1;
  nodes_.push_back({parent, decision});
  states_.push_back(std::move(state));
  queue_.push_back(it->second);
  return it->second;
}

void DpSolver::expand(const State& s, std::int64_t node_index) {
  const double T = groups_.T();
  const auto& group_batches = batches_[s.group];

  if (!s.pending.empty()) {
    const Batch& batch = group_batches[s.batch];
    const double p = s.pending.front().size;

    const auto pop_largest = [&](State& next) {
      next.pending = s.pending;
      if (--next.pending.front().count == 0) {
        next.pending.erase(next.pending.begin());
      }
    };

    // Placement options, one per distinct slot kind.
    for (std::size_t t = 0; t < s.slots.size(); ++t) {
      const Slot& slot = s.slots[t];
      double add = 0.0;
      Decision::Kind kind;
      std::uint8_t new_zeta = slot.zeta;
      if (batch.dummy) {
        add = p;  // fringe: no setup, zeta untouched
        kind = Decision::Kind::kPlace;
      } else if (slot.zeta == 0) {
        add = p + batch.setup;
        kind = Decision::Kind::kPlaceSetup;
        new_zeta = 1;
      } else {
        add = p;
        kind = Decision::Kind::kPlace;
      }
      if (slot.load + add > slot.speed * T * (1.0 + kTinySlack)) continue;

      State next;
      next.group = s.group;
      next.batch = s.batch;
      next.xi = s.xi;
      next.l1 = s.l1;
      next.l2 = s.l2;
      next.l3 = s.l3;
      pop_largest(next);
      next.slots = s.slots;
      // Detach one machine from slot t, reinsert with the new load/zeta.
      if (--next.slots[t].count == 0) {
        next.slots.erase(next.slots.begin() + static_cast<std::ptrdiff_t>(t));
      }
      Slot moved{slot.speed, slot.load + add, new_zeta, 1};
      auto it = std::find_if(next.slots.begin(), next.slots.end(),
                             [&](const Slot& o) { return o.same_kind(moved); });
      if (it != next.slots.end()) {
        ++it->count;
      } else {
        next.slots.insert(
            std::upper_bound(next.slots.begin(), next.slots.end(), moved),
            moved);
      }
      intern(std::move(next), node_index,
             {kind, p, slot.speed, slot.load, slot.zeta});
    }

    // Fractional option.
    {
      State next;
      next.group = s.group;
      next.batch = s.batch;
      next.slots = s.slots;
      next.l2 = s.l2;
      next.l3 = s.l3;
      pop_largest(next);
      next.xi = s.xi;
      next.l1 = s.l1 + p;
      if (!batch.dummy && !batch.class_has_fringe && s.xi == 0) {
        next.l1 += batch.setup;  // first fractional core job of the class
        next.xi = 1;
      }
      intern(std::move(next), node_index,
             {Decision::Kind::kFractional, p, 0.0, 0.0, 0});
    }
    return;
  }

  // Pending empty: advance to the next batch or the next group.
  if (static_cast<std::size_t>(s.batch) + 1 < group_batches.size()) {
    State next;
    next.group = s.group;
    next.batch = s.batch + 1;
    next.xi = 0;
    next.l1 = s.l1;
    next.l2 = s.l2;
    next.l3 = s.l3;
    next.pending = group_batches[next.batch].sizes;
    // Reset zeta flags (class change) and re-canonicalize.
    next.slots = s.slots;
    for (Slot& slot : next.slots) slot.zeta = 0;
    std::sort(next.slots.begin(), next.slots.end());
    for (std::size_t t = 0; t + 1 < next.slots.size();) {
      if (next.slots[t].same_kind(next.slots[t + 1])) {
        next.slots[t].count += next.slots[t + 1].count;
        next.slots.erase(next.slots.begin() + static_cast<std::ptrdiff_t>(t) + 1);
      } else {
        ++t;
      }
    }
    intern(std::move(next), node_index,
           {Decision::Kind::kNextBatch, 0.0, 0.0, 0.0, 0});
    return;
  }

  // Group transition (possibly into the accepting pseudo-group G+1).
  const double T2 = groups_.T();
  double leaving_free = 0.0;
  std::vector<Slot> staying;
  for (const Slot& slot : s.slots) {
    const int L = groups_.machine_lower_group(slot.speed);
    if (L == s.group) {
      leaving_free += std::max(0.0, slot.speed * T2 - slot.load) * slot.count;
    } else {
      Slot kept = slot;
      kept.zeta = 0;
      staying.push_back(kept);
    }
  }

  State next;
  next.group = s.group + 1;
  next.batch = 0;
  next.xi = 0;
  next.l1 = 0.0;
  next.l2 = s.l1;
  next.l3 = s.l2 + std::max(0.0, s.l3 - leaving_free);

  if (next.group > max_group_) {
    // End: all machines were leaving; l1/l2 of the pseudo-state must vanish.
    next.slots.clear();
    if (next.l2 > kTinySlack || next.l3 > kTinySlack) return;  // dead end
    // note: next.l2 = s.l1 (fractional jobs of group G need faster machines)
    //       next.l3 includes s.l2 (group G-1's fractional jobs) -- both must
    //       be zero, enforced above and by is_end_state.
    intern(std::move(next), node_index,
           {Decision::Kind::kNextGroup, 0.0, 0.0, 0.0, 0});
    return;
  }

  for (const MachineId i : enter_at_[next.group]) {
    Slot slot{inst_.speed[i], 0.0, 0, 1};
    auto it = std::find_if(staying.begin(), staying.end(),
                           [&](const Slot& o) { return o.same_kind(slot); });
    if (it != staying.end()) {
      ++it->count;
    } else {
      staying.push_back(slot);
    }
  }
  std::sort(staying.begin(), staying.end());
  // Merge duplicates after the zeta reset.
  for (std::size_t t = 0; t + 1 < staying.size();) {
    if (staying[t].same_kind(staying[t + 1])) {
      staying[t].count += staying[t + 1].count;
      staying.erase(staying.begin() + static_cast<std::ptrdiff_t>(t) + 1);
    } else {
      ++t;
    }
  }
  next.slots = std::move(staying);
  if (!batches_[next.group].empty()) {
    next.pending = batches_[next.group][0].sizes;
  }
  intern(std::move(next), node_index,
         {Decision::Kind::kNextGroup, 0.0, 0.0, 0.0, 0});
}

RelaxedSchedule DpSolver::replay(std::int64_t end_node) const {
  // Collect the decision chain root -> end.
  std::vector<const Decision*> chain;
  for (std::int64_t at = end_node; at >= 0; at = nodes_[at].parent) {
    chain.push_back(&nodes_[at].decision);
  }
  std::reverse(chain.begin(), chain.end());

  RelaxedSchedule out;
  out.integral = Schedule::empty(inst_.num_jobs());
  out.relaxed_load.assign(inst_.num_machines(), 0.0);
  out.fractional_by_group = preassigned_fractional_;

  // Concrete machine states of the current group.
  struct ConcreteMachine {
    MachineId id;
    double speed;
    double load;
    std::uint8_t zeta;
  };
  std::vector<ConcreteMachine> active;
  for (const MachineId i : enter_at_[0]) {
    active.push_back({i, inst_.speed[i], 0.0, 0});
  }

  int group = 0;
  std::size_t batch_index = 0;
  auto jobs_by_size = batches_.empty() || batches_[0].empty()
                          ? std::map<double, std::vector<JobId>, std::greater<>>{}
                          : batches_[0][0].jobs_by_size;

  const auto pop_job = [&](double size) {
    auto it = jobs_by_size.find(size);
    check(it != jobs_by_size.end() && !it->second.empty(),
          "replay: no job of the decided size");
    const JobId j = it->second.back();
    it->second.pop_back();
    if (it->second.empty()) jobs_by_size.erase(it);
    return j;
  };

  for (const Decision* d : chain) {
    switch (d->kind) {
      case Decision::Kind::kRoot:
        break;
      case Decision::Kind::kPlace:
      case Decision::Kind::kPlaceSetup: {
        const JobId j = pop_job(d->size);
        const Batch& batch = batches_[group][batch_index];
        auto it = std::find_if(active.begin(), active.end(),
                               [&](const ConcreteMachine& cm) {
                                 return cm.speed == d->speed &&
                                        cm.load == d->load &&
                                        cm.zeta == d->zeta;
                               });
        check(it != active.end(), "replay: no machine matches the slot");
        out.integral.assignment[j] = it->id;
        it->load += d->size;
        if (d->kind == Decision::Kind::kPlaceSetup) {
          it->load += batch.setup;
          it->zeta = 1;
        }
        break;
      }
      case Decision::Kind::kFractional: {
        const JobId j = pop_job(d->size);
        out.fractional_by_group[group].push_back(j);
        break;
      }
      case Decision::Kind::kNextBatch: {
        check(jobs_by_size.empty(), "replay: batch advanced with jobs left");
        ++batch_index;
        jobs_by_size = batches_[group][batch_index].jobs_by_size;
        for (ConcreteMachine& cm : active) cm.zeta = 0;
        break;
      }
      case Decision::Kind::kNextGroup: {
        check(jobs_by_size.empty(), "replay: group advanced with jobs left");
        // Leaving machines freeze their relaxed load.
        std::vector<ConcreteMachine> staying;
        for (ConcreteMachine& cm : active) {
          if (machine_lower_[cm.id] == group) {
            out.relaxed_load[cm.id] = cm.load;
          } else {
            cm.zeta = 0;
            staying.push_back(cm);
          }
        }
        active = std::move(staying);
        ++group;
        batch_index = 0;
        if (group <= max_group_) {
          for (const MachineId i : enter_at_[group]) {
            active.push_back({i, inst_.speed[i], 0.0, 0});
          }
          if (!batches_[group].empty()) {
            jobs_by_size = batches_[group][0].jobs_by_size;
          } else {
            jobs_by_size.clear();
          }
        }
        break;
      }
    }
  }
  check(active.empty(), "replay: machines left active after the last group");
  return out;
}

RelaxedDpResult DpSolver::run() {
  RelaxedDpResult out;
  if (!prepare(out)) return out;

  State init = initial_state();
  // A group-0 state with no batches still needs transitions; expand() handles
  // empty pending by advancing, so just seed the search.
  intern(std::move(init), -1, {Decision::Kind::kRoot, 0.0, 0.0, 0.0, 0});

  // LIFO order (depth-first): feasible instances reach an accepting state
  // quickly along a mostly-integral path; infeasible ones must exhaust the
  // reachable set either way.
  while (!queue_.empty()) {
    const std::int64_t at = queue_.back();
    queue_.pop_back();
    // Copy: expand() appends to states_, which may reallocate.
    const State s = states_[at];
    if (is_end_state(s)) {
      end_node_ = at;
      break;
    }
    if (nodes_.size() > max_states_) {
      out.status = DpStatus::kResourceLimit;
      out.states = nodes_.size();
      return out;
    }
    expand(s, at);
  }

  out.states = nodes_.size();
  if (end_node_ < 0) {
    out.status = DpStatus::kInfeasible;
    return out;
  }
  out.status = DpStatus::kFeasible;
  out.relaxed = replay(end_node_);
  return out;
}

}  // namespace

RelaxedDpResult solve_relaxed_dp(const UniformInstance& instance,
                                 const GroupStructure& groups,
                                 std::size_t max_states) {
  instance.validate();
  DpSolver solver(instance, groups, max_states);
  return solver.run();
}

}  // namespace setsched
