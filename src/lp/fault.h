#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/prng.h"

namespace setsched::lp {

/// Catalog of numerical faults the revised solver can inject on purpose.
/// Each kind corrupts one well-defined internal quantity, chosen to mimic a
/// realistic numerics failure (accumulated roundoff, a bad pivot, a stale
/// cache) rather than arbitrary memory damage, so the guard/recovery ladder
/// is exercised on the failure shapes it is designed for.
enum class FaultKind : std::uint8_t {
  kEtaFlip,        ///< flip the sign of one entry of a freshly pushed eta
  kFactorPerturb,  ///< scale one U diagonal by 1 +/- kFactorPerturbScale
  kFtranNan,       ///< overwrite one FTRAN result entry with NaN
  kSkipRefactor,   ///< suppress one refactorization trigger
  kStaleDevex,     ///< drop one Devex weight update (weights go stale)
};

inline constexpr std::size_t kFaultKindCount = 5;

/// Relative magnitude of the kFactorPerturb corruption: each firing scales
/// one U diagonal by 1 +/- this. Big enough that the residual audit must
/// notice, small enough to mimic marginal pivot instability rather than
/// obvious breakage.
inline constexpr double kFactorPerturbScale =
    1e-6;  // lint: allow-tolerance (fault magnitude, not a solver tolerance)

/// Stable spec name ("eta-flip", "factor-perturb", ...).
[[nodiscard]] std::string_view fault_kind_name(FaultKind kind);

/// Deterministic, seeded description of which faults to inject and how
/// often. Shared, immutable during a solve: per-solve injection state lives
/// in FaultInjector, so concurrent solvers reading one plan stay
/// deterministic per solve.
struct FaultPlan {
  std::uint64_t seed = 0;
  /// Per-opportunity firing probability for every armed kind. Opportunities
  /// are frequent (one per eta push / FTRAN / factorization / Devex update),
  /// so the useful range is small; 0 disarms everything.
  double rate = 1e-3;  // lint: allow-tolerance (firing rate, not a
                       // numerical tolerance)
  bool armed[kFaultKindCount] = {};

  [[nodiscard]] bool any() const noexcept {
    if (rate <= 0.0) return false;
    for (const bool a : armed) {
      if (a) return true;
    }
    return false;
  }
  void arm(FaultKind kind) noexcept {
    armed[static_cast<std::size_t>(kind)] = true;
  }
  [[nodiscard]] bool is_armed(FaultKind kind) const noexcept {
    return armed[static_cast<std::size_t>(kind)] && rate > 0.0;
  }

  /// Parses an `--inject=` / plan `inject` spec: a comma-separated list of
  /// kind names (or `all`), with an optional `@rate` suffix applying to the
  /// whole plan, e.g. "eta-flip,ftran-nan@0.02" or "all@0.005". Throws
  /// CheckError on unknown kinds or a rate outside (0, 1].
  [[nodiscard]] static FaultPlan parse(std::string_view spec,
                                       std::uint64_t seed);

  /// Canonical round-trip of parse() (kinds in enum order + "@rate");
  /// empty string when nothing is armed.
  [[nodiscard]] std::string spec() const;
};

/// Per-solve injection state: one deterministic SplitMix64 stream drawn from
/// the plan's seed, advanced once per opportunity of an armed kind. The
/// disarmed fast path is a single null check, so carrying an injector
/// through the hot loops costs nothing in production.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(const FaultPlan* plan)
      : plan_(plan != nullptr && plan->any() ? plan : nullptr),
        rng_(plan_ != nullptr ? plan_->seed : 0) {}

  [[nodiscard]] bool armed() const noexcept { return plan_ != nullptr; }

  /// True iff `kind` fires at this opportunity. Advances the stream only for
  /// armed kinds so disarmed kinds never perturb the sequence.
  [[nodiscard]] bool fire(FaultKind kind) {
    if (plan_ == nullptr || !plan_->is_armed(kind)) return false;
    ++opportunities_;
    const bool hit =
        static_cast<double>(rng_() >> 11) * 0x1.0p-53 < plan_->rate;
    if (hit) ++injected_;
    return hit;
  }

  /// Deterministic index draw for "which entry to corrupt" decisions.
  [[nodiscard]] std::size_t pick(std::size_t bound) {
    if (bound == 0) return 0;
    return static_cast<std::size_t>(rng_() % bound);
  }

  /// +1 or -1, for the 1 +/- kFactorPerturbScale factor perturbation.
  [[nodiscard]] double pick_sign() { return (rng_() & 1) != 0 ? 1.0 : -1.0; }

  [[nodiscard]] std::size_t injected() const noexcept { return injected_; }
  [[nodiscard]] std::size_t opportunities() const noexcept {
    return opportunities_;
  }

 private:
  const FaultPlan* plan_ = nullptr;
  SplitMix64 rng_{0};
  std::size_t injected_ = 0;
  std::size_t opportunities_ = 0;
};

}  // namespace setsched::lp
