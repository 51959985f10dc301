#include "uniform/ptas.h"

#include <algorithm>
#include <cmath>

#include "common/bisect.h"
#include "common/check.h"
#include "core/bounds.h"
#include "uniform/groups.h"
#include "uniform/lpt.h"
#include "uniform/reconstruct.h"
#include "uniform/relaxed_dp.h"
#include "uniform/simplify.h"

namespace setsched {

namespace {

enum class ProbeOutcome { kAccept, kReject, kResourceLimit };

struct Probe {
  ProbeOutcome outcome = ProbeOutcome::kReject;
  Schedule schedule = Schedule::empty(0);  // lifted, original instance
  double makespan = 0.0;
  std::size_t dp_states = 0;
};

/// Tests guess T: if a schedule of makespan <= T exists for `original`, the
/// simplified instance has one of makespan (1+ε)^5 T, hence a relaxed
/// schedule at that bound, which the DP finds; reconstruction + lifting then
/// yield a (1+O(ε)) T schedule. A kReject verdict certifies OPT > T.
Probe probe_T(const UniformInstance& original, double T, double epsilon,
              std::size_t max_states) {
  Probe out;
  const SimplifiedInstance simplified = simplify_instance(original, T, epsilon);
  const double T1 = std::pow(1.0 + epsilon, 5) * T;
  const double vmin = *std::min_element(simplified.instance.speed.begin(),
                                        simplified.instance.speed.end());
  const GroupStructure groups(epsilon, vmin, T1);

  const RelaxedDpResult dp =
      solve_relaxed_dp(simplified.instance, groups, max_states);
  out.dp_states = dp.states;
  switch (dp.status) {
    case DpStatus::kInfeasible:
      out.outcome = ProbeOutcome::kReject;
      return out;
    case DpStatus::kResourceLimit:
      out.outcome = ProbeOutcome::kResourceLimit;
      return out;
    case DpStatus::kFeasible:
      break;
  }

  const Schedule simplified_schedule =
      reconstruct_schedule(simplified.instance, groups, dp.relaxed);
  out.schedule = lift_schedule(simplified, original, simplified_schedule);
  out.makespan = makespan(original, out.schedule);
  out.outcome = ProbeOutcome::kAccept;
  return out;
}

}  // namespace

PtasResult ptas_uniform(const UniformInstance& instance,
                        const PtasOptions& options) {
  instance.validate();
  // floor_epsilon_to_power_of_two never terminates for epsilon <= 0.
  check(std::isfinite(options.epsilon) && options.epsilon > 0.0,
        "ptas_uniform: epsilon must be finite and positive");
  const double epsilon = floor_epsilon_to_power_of_two(options.epsilon);

  // Bootstrap bounds via Lemma 2.1 LPT.
  const ScheduleResult lpt = lpt_with_placeholders(instance);
  PtasResult result;
  result.schedule = lpt.schedule;
  result.makespan = lpt.makespan;

  double lo = std::max(lpt.makespan / kLptSetupFactor, uniform_lower_bound(instance));
  double hi = lpt.makespan;
  result.lower_bound = 0.0;  // no rejection witnessed yet
  result.accepted_T = hi;    // LPT certifies feasibility at its makespan

  // Geometric binary search. Invariants: a schedule of makespan <= hi is
  // known; every probe rejection raises `lo` to a certified lower bound.
  while (const std::optional<double> next =
             geometric_midpoint(lo, hi, epsilon)) {
    const double mid = *next;
    ++result.probes;
    const Probe probe = probe_T(instance, mid, epsilon, options.max_states);
    result.max_dp_states = std::max(result.max_dp_states, probe.dp_states);
    if (probe.outcome == ProbeOutcome::kResourceLimit) {
      result.resource_limited = true;
      break;
    }
    if (probe.outcome == ProbeOutcome::kAccept) {
      hi = mid;
      result.accepted_T = mid;
      if (probe.makespan < result.makespan) {
        result.makespan = probe.makespan;
        result.schedule = probe.schedule;
      }
    } else {
      lo = mid;
      result.lower_bound = std::max(result.lower_bound, mid);
    }
  }

  check(!schedule_error(instance.to_unrelated(), result.schedule).has_value(),
        "PTAS produced an invalid schedule");
  return result;
}

}  // namespace setsched
