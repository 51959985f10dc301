#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace setsched::obs {

/// Wall-clock phases accumulated while a solver runs. The enum is the
/// serialization contract: names (phase_name) and order are stable, new
/// phases append before the end. Phases form three nesting tiers rather than
/// one flat partition — see docs/OBSERVABILITY.md:
///  * solver tier (disjoint): root_bound, dive, prove cover the exact
///    solvers' wall clock; colgen_pricing covers the colgen pricing rounds;
///  * LP tier: lp_solve is the total time inside a simplex solve (nested
///    under whatever solver phase triggered it), split into the lp_primal /
///    lp_dual loops;
///  * kernel tier (nested under the loops): lp_ftran, lp_btran, lp_factor,
///    lp_pricing.
/// dominance and refix are sub-phases of prove/dive.
enum class Phase : std::uint8_t {
  kLpSolve = 0,     ///< whole lp::solve_revised call
  kLpPrimal,        ///< primal simplex loop (phases 1+2)
  kLpDual,          ///< dual simplex loop
  kLpFtran,         ///< FTRAN solves (B z = a)
  kLpBtran,         ///< BTRAN solves (B^T y = c_B)
  kLpFactor,        ///< LU (re)factorizations
  kLpPricing,       ///< primal pricing passes (candidate/Devex/full scans)
  kRootBound,       ///< exact: root LP bound + root reduced-cost fixing
  kDive,            ///< exact: beam-search descent
  kProve,           ///< exact: DFS branch-and-bound
  kDominance,       ///< exact: dominance memo lookups / beam dominance scans
  kRefix,           ///< exact: incremental root refixing on incumbent updates
  kColgenPricing,   ///< colgen: knapsack pricing rounds
};

inline constexpr std::size_t kPhaseCount = 13;

/// Stable serialization name ("lp_solve", "root_bound", ...).
[[nodiscard]] std::string_view phase_name(Phase phase);

/// Per-phase wall-time totals in milliseconds. A fixed array keyed by Phase
/// so equality, serialization order, and zero-initialization are all
/// trivial; rides SolverStats -> RunRecord -> JSONL/CSV/BENCH_expt.json.
struct PhaseTimes {
  std::array<double, kPhaseCount> ms{};

  [[nodiscard]] double& operator[](Phase phase) {
    return ms[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] double operator[](Phase phase) const {
    return ms[static_cast<std::size_t>(phase)];
  }
  /// True when every phase is exactly zero (untimed run / legacy record).
  [[nodiscard]] bool empty() const {
    for (const double v : ms) {
      if (v != 0.0) return false;
    }
    return true;
  }
  PhaseTimes& operator+=(const PhaseTimes& other) {
    for (std::size_t i = 0; i < kPhaseCount; ++i) ms[i] += other.ms[i];
    return *this;
  }
  /// Total LP share of the run: the top-of-tier lp_solve phase.
  [[nodiscard]] double lp_ms() const { return (*this)[Phase::kLpSolve]; }

  [[nodiscard]] bool operator==(const PhaseTimes&) const = default;
};

/// Delta between two snapshots (a - b, per phase; used for the
/// before/after-solve capture in the harness and CLI).
[[nodiscard]] inline PhaseTimes operator-(const PhaseTimes& a,
                                          const PhaseTimes& b) {
  PhaseTimes out;
  for (std::size_t i = 0; i < kPhaseCount; ++i) out.ms[i] = a.ms[i] - b.ms[i];
  return out;
}

namespace internal {
extern std::atomic<bool> g_timing_enabled;
[[nodiscard]] PhaseTimes& local_phase_times();
}  // namespace internal

/// Runtime gate for phase accounting. The disabled path of every PhaseTimer
/// is one relaxed atomic load and a branch. With SETSCHED_OBS_DISABLED the
/// gate is compile-time false and timers vanish entirely (the CI
/// zero-overhead guard builds this configuration).
#ifdef SETSCHED_OBS_DISABLED
[[nodiscard]] inline constexpr bool timing_enabled() { return false; }
#else
[[nodiscard]] inline bool timing_enabled() {
  return internal::g_timing_enabled.load(std::memory_order_relaxed);
}
#endif

void set_timing_enabled(bool enabled);

/// Copy of the calling thread's accumulated totals. Accumulation is
/// thread-local: a snapshot delta around solve() attributes exactly the work
/// this thread did (sweep cells and --all tasks run single-threaded, so the
/// attribution there is complete; work a solver hands to a ThreadPool lands
/// on the workers' accumulators instead).
[[nodiscard]] PhaseTimes phase_snapshot();

/// RAII accumulator: adds the scope's wall time to the thread's total for
/// `phase`. Nested timers of different phases each count their own span.
class PhaseTimer {
 public:
  explicit PhaseTimer(Phase phase) {
    if (timing_enabled()) {
      phase_ = phase;
      start_ = std::chrono::steady_clock::now();
      armed_ = true;
    }
  }
  ~PhaseTimer() {
    if (armed_) {
      const auto end = std::chrono::steady_clock::now();
      internal::local_phase_times()[phase_] +=
          std::chrono::duration<double, std::milli>(end - start_).count();
    }
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  Phase phase_{};
  std::chrono::steady_clock::time_point start_{};
  bool armed_ = false;
};

}  // namespace setsched::obs
