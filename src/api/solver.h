#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/thread_pool.h"
#include "core/instance.h"
#include "core/result.h"
#include "lp/fault.h"

namespace setsched {

/// Input handed to every registered solver: the general matrix form plus,
/// when the instance is known to be uniformly related, the structured form
/// required by the uniform-machines algorithms (LPT, PTAS). The matrix form
/// is always present and is the single source of truth for evaluating
/// schedules, so results from different solvers are directly comparable.
struct ProblemInput {
  Instance instance;
  std::optional<UniformInstance> uniform;

  [[nodiscard]] static ProblemInput from_unrelated(Instance instance);
  [[nodiscard]] static ProblemInput from_uniform(UniformInstance uniform);
};

/// Best core/bounds.h lower bound on OPT for the input's form: the per-job
/// unrelated bound, raised by the aggregate load/speed bound when the
/// uniform form is present. The denominator of every reported ratio.
[[nodiscard]] double lower_bound(const ProblemInput& input);

/// Runtime knobs shared by all solvers; each solver reads what it needs and
/// ignores the rest, so one context can drive the whole registry.
struct SolverContext {
  std::uint64_t seed = 1;
  /// Accuracy parameter for the uniform PTAS.
  double epsilon = 0.5;
  /// Binary-search precision for the LP-based solvers.
  double precision = 0.05;
  /// Wall-clock budget of each exact solver call, its one deadline. The
  /// other solvers run to completion.
  double time_limit_s = 10.0;
  /// Optional pool for intra-solver parallelism (colgen pricing). Null
  /// means sequential.
  ThreadPool* pool = nullptr;
  /// Deterministic LP fault-injection plan (lp/fault.h; CLI --inject).
  /// Disarmed by default; when armed, every LP-backed solver routes it into
  /// its simplex solves and enables the residual-audit guard so the
  /// injected corruption is caught and recovered instead of propagated.
  lp::FaultPlan fault_plan;
  /// Residual audit of every LP solve of the approximation pipelines. The
  /// exact solvers' bound probes are always audited regardless. Forced on
  /// while fault_plan is armed.
  bool lp_audit = false;
};

/// Polymorphic facade over the algorithm zoo. Implementations are stateless:
/// solve() may be called concurrently from different threads on different
/// inputs. Every solver returns a complete schedule whose makespan field is
/// re-evaluated on input.instance (see ScheduleResult).
class Solver {
 public:
  virtual ~Solver() = default;

  /// Identifier under which the solver is registered.
  [[nodiscard]] virtual std::string name() const = 0;

  /// True iff the solver's structural preconditions hold for `input`
  /// (e.g. the PTAS needs the uniform form, the 2-approximation needs
  /// class-uniform restrictions). solve() throws CheckError otherwise.
  [[nodiscard]] virtual bool supports(const ProblemInput& input) const;

  [[nodiscard]] virtual ScheduleResult solve(const ProblemInput& input,
                                             const SolverContext& context) const = 0;
};

}  // namespace setsched
