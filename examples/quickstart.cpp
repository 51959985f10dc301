// Quickstart: build a small instance with setup classes by hand, run the
// main algorithms, and inspect the schedules.
//
//   ./examples/quickstart

#include <iostream>

#include "api/registry.h"
#include "core/instance.h"
#include "core/io.h"
#include "core/schedule.h"
#include "exact/branch_bound.h"
#include "unrelated/greedy.h"
#include "unrelated/rounding.h"

using namespace setsched;

int main() {
  // 3 machines, 6 jobs in 2 setup classes. Class 0 is cheap to set up,
  // class 1 expensive — batching class 1 matters.
  Instance inst(3, 2, {0, 0, 0, 1, 1, 1});
  const double proc[3][6] = {
      {4, 5, 3, 6, 7, 5},
      {5, 4, 4, 5, 6, 6},
      {6, 6, 5, 4, 5, 4},
  };
  for (MachineId i = 0; i < 3; ++i) {
    for (JobId j = 0; j < 6; ++j) inst.set_proc(i, j, proc[i][j]);
    inst.set_setup(i, 0, 1);
    inst.set_setup(i, 1, 8);
  }
  std::cout << describe(inst);

  const auto report = [&](const char* name, const Schedule& s) {
    std::cout << name << ": makespan " << makespan(inst, s) << ", setups "
              << total_setups(inst, s) << ", assignment [";
    for (JobId j = 0; j < inst.num_jobs(); ++j) {
      std::cout << (j ? " " : "") << s.assignment[j];
    }
    std::cout << "]\n";
  };

  // Greedy baseline.
  report("greedy min-load   ", greedy_min_load(inst).schedule);

  // Theorem 3.3: LP relaxation + randomized rounding.
  RoundingOptions ropt;
  ropt.seed = 42;
  const RoundingResult rounded = randomized_rounding(inst, ropt);
  report("randomized rounding", rounded.schedule);
  std::cout << "  LP window: feasible at T=" << rounded.lp_T
            << ", OPT >= " << rounded.lp_lower_bound << "\n";

  // Ground truth (exact branch and bound; fine at this size).
  const ExactResult exact = solve_exact(inst);
  report("exact optimum      ", exact.schedule);

  // The same algorithms are also reachable by name through the unified
  // Solver registry (what setsched_cli drives); see examples/registry_tour.
  const ProblemInput input = ProblemInput::from_unrelated(inst);
  const auto solver = SolverRegistry::global().create("local-search");
  report("registry local-search", solver->solve(input, SolverContext{}).schedule);
  return 0;
}
