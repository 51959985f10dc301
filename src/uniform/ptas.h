#pragma once

#include "core/instance.h"
#include "core/result.h"

namespace setsched {

struct PtasOptions {
  /// Accuracy parameter; floored internally to a power of two (<= 1/2).
  /// Must be finite and > 0 (ptas_uniform throws CheckError otherwise).
  double epsilon = 0.5;
  /// DP state budget per feasibility probe.
  std::size_t max_states = 300'000;  // lint: allow-knob (tests shrink it)
};

struct PtasResult {
  Schedule schedule;
  double makespan = 0.0;
  /// Largest probed T for which the DP proved no schedule of makespan <= T
  /// exists (a valid lower bound on OPT); the binary search converges to
  /// accepted_T / lower_bound <= 1 + ε.
  double lower_bound = 0.0;
  /// Smallest accepted makespan guess.
  double accepted_T = 0.0;
  /// True if some probe ran out of DP states; the result is then only as
  /// good as the probes that completed (plus the LPT fallback).
  bool resource_limited = false;
  std::size_t probes = 0;
  std::size_t max_dp_states = 0;
};

/// The Section 2.1 PTAS for scheduling with setup times on uniformly
/// related machines: dual-approximation binary search over makespan guesses;
/// each probe simplifies the instance (Lemmas 2.2-2.4), decides relaxed
/// feasibility by the group DP, reconstructs (Lemma 2.8) and lifts the
/// schedule back to the original instance. The returned schedule's makespan
/// is (1 + O(ε)) * OPT; the exact empirical factor is reported by E2.
[[nodiscard]] PtasResult ptas_uniform(const UniformInstance& instance,
                                      const PtasOptions& options = {});

}  // namespace setsched
