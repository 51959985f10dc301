#include "obs/phase.h"

namespace setsched::obs {

namespace {

constexpr std::string_view kPhaseNames[kPhaseCount] = {
    "lp_solve",   "lp_primal", "lp_dual",        "lp_ftran", "lp_btran",
    "lp_factor",  "lp_pricing", "root_bound",    "dive",     "prove",
    "dominance",  "refix",      "colgen_pricing",
};

}  // namespace

std::string_view phase_name(Phase phase) {
  return kPhaseNames[static_cast<std::size_t>(phase)];
}

namespace internal {

std::atomic<bool> g_timing_enabled{false};

PhaseTimes& local_phase_times() {
  thread_local PhaseTimes times;
  return times;
}

}  // namespace internal

void set_timing_enabled(bool enabled) {
  internal::g_timing_enabled.store(enabled, std::memory_order_relaxed);
}

PhaseTimes phase_snapshot() { return internal::local_phase_times(); }

}  // namespace setsched::obs
