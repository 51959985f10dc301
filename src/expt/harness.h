#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "api/solver.h"
#include "expt/plan.h"
#include "expt/record.h"

namespace setsched::expt {

/// The one solve-and-validate path, shared by sweep cells and setsched_cli
/// single runs. Returns `record` (whose key fields the caller has set) with
/// lower_bound and the outcome filled in:
///   - kSkipped when `solver` does not support `input`;
///   - otherwise one solve() under `context`, inside a "solve" trace span
///     named by the solver (tagged with record.preset and record.seed when
///     the preset is set), with time_ms and the phase_ms delta of the
///     calling thread when `record_timing`;
///   - kInvalid when the schedule is infeasible or the reported makespan
///     disagrees with the evaluated one (relative 1e-9);
///   - kOk with ratio against `lower_bound` (1.0 when it is 0), setups, the
///     effort counters and the certificate;
///   - kError with the message when anything throws.
[[nodiscard]] RunRecord validated_solve(const Solver& solver,
                                        const ProblemInput& input,
                                        const SolverContext& context,
                                        double lower_bound,
                                        bool record_timing, RunRecord record);

/// Optional live-progress hook for run_experiment: called after every
/// completed cell with (cells_done, cells_total). Calls are serialized under
/// the harness's aggregation mutex — the callback itself needs no locking —
/// but they arrive from whichever pool worker finished the cell, in
/// completion (not cell_key) order.
using ProgressFn = std::function<void(std::size_t done, std::size_t total)>;

/// Executes every (preset, seed, solver) cell of the plan and returns one
/// RunRecord per cell, in cell_key() order.
///
/// Determinism contract: records depend only on the plan, never on thread
/// count or scheduling order. Instances are generated from (preset, seed)
/// alone — every solver of a cell row sees the same instance — and solver
/// seeds come from cell_seed(). Cells are sharded across the pool with
/// work-stealing granularity of one cell (ThreadPool::parallel_for),
/// each writing its own slot of the result vector; the only
/// thread-count-dependent field is time_ms, which plan.record_timing = false
/// zeroes for byte-identical output.
///
/// A solver that throws or returns an invalid schedule is recorded
/// (kError / kInvalid) rather than aborting the sweep; plan validation
/// errors still throw CheckError.
[[nodiscard]] std::vector<RunRecord> run_experiment(
    const ExperimentPlan& plan, const ProgressFn& progress = {});

}  // namespace setsched::expt
