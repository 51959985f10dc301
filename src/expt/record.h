#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/counters.h"
#include "obs/phase.h"

namespace setsched::expt {

/// Outcome of one (instance, solver) cell of a sweep.
enum class RunStatus {
  kOk,       ///< schedule returned, validated, makespan confirmed
  kSkipped,  ///< solver precondition not met for this instance
  kInvalid,  ///< solver returned an infeasible schedule or a wrong makespan
  kError,    ///< solver threw; `error` holds the message
};

[[nodiscard]] std::string_view run_status_name(RunStatus status);

/// One structured result row of an experiment sweep: the cell key
/// (solver, preset, seed), the instance shape, the measured outcome, and an
/// echo of the solver-context knobs so a record is self-describing. The
/// effort counters (core/counters.h) echo SolverStats. Streamed as JSONL/CSV
/// by record_io.h and consumed by aggregate.h. The 34-key wire order is
/// declared once, in record_io.cpp's column list; the field-by-field schema
/// is documented in docs/BENCH_SCHEMA.md.
struct RunRecord : EffortCounters {
  std::string solver;
  std::string preset;
  std::uint64_t seed = 0;       ///< instance seed (member of the preset family)
  std::uint64_t cell_seed = 0;  ///< derived solver seed, see cell_seed()

  std::size_t num_jobs = 0;
  std::size_t num_machines = 0;
  std::size_t num_classes = 0;

  RunStatus status = RunStatus::kOk;
  double makespan = 0.0;
  double lower_bound = 0.0;  ///< best core/bounds bound for the instance form
  double ratio = 0.0;        ///< makespan / lower_bound (1.0 when bound is 0)
  std::size_t setups = 0;    ///< total setups paid across machines
  double time_ms = 0.0;      ///< wall time of solve(); 0 when timing is off
  /// Per-phase breakdown of time_ms (src/obs accounting); all zeros when
  /// timing is off.
  obs::PhaseTimes phase_ms;

  // Search certificate (SolverStats echo). Every record carries these so
  // quality tables can separate proven optima from budget-exhausted
  // incumbents: proven_optimal is true only for solver-certified optima, and
  // gap is the certified relative gap (>= 0) or -1 when the solver issues no
  // certificate (heuristics).
  bool proven_optimal = false;
  double gap = -1.0;

  // Context echo.
  double epsilon = 0.0;
  double precision = 0.0;
  double time_limit_s = 0.0;

  std::string error;  ///< non-empty iff status is kInvalid or kError

  [[nodiscard]] bool operator==(const RunRecord&) const = default;
};

}  // namespace setsched::expt
