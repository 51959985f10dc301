#pragma once

#include <numbers>

#include "core/instance.h"
#include "core/result.h"

namespace setsched {

/// Kovács' approximation factor of LPT on uniformly related machines
/// (without setup times).
inline constexpr double kLptUniformFactor = 1.0 + 1.0 / std::numbers::sqrt3;

/// Approximation factor of lpt_with_placeholders (Lemma 2.1):
/// 3 * (1 + 1/sqrt(3)) ~= 4.73.
inline constexpr double kLptSetupFactor = 3.0 * kLptUniformFactor;

/// Lemma 2.1: per class k, jobs smaller than the setup size s_k are replaced
/// by ceil(sum/s_k) placeholder jobs of size s_k; plain LPT schedules the
/// modified job set; placeholders are unpacked greedily (over-packing at
/// most one small job per class-machine pair). Guarantees makespan
/// <= kLptSetupFactor * OPT.
[[nodiscard]] ScheduleResult lpt_with_placeholders(const UniformInstance& instance);

}  // namespace setsched
