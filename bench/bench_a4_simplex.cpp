// A4 — micro-benchmarks of the LP substrate (google-benchmark): random
// dense LPs and the scheduling LPs the algorithms actually build, with the
// dense tableau pinned against the sparse revised simplex (the kAuto default
// and the dual-preferring kDual), the assignment-LP T-search measured cold
// (fresh model per probe) vs warm (one parametric model, basis chained
// across probes), and the exact solver's min-makespan relaxation measured
// as a chain of dual re-optimizations under pin changes.

#include <benchmark/benchmark.h>

#include <cmath>

#include "common/prng.h"
#include "core/bounds.h"
#include "core/generators.h"
#include "lp/simplex.h"
#include "restricted/relaxed_lp.h"
#include "unrelated/assignment_lp.h"

using namespace setsched;

namespace {

/// 0 = tableau, 1 = auto (the default revised path), 2 = dual-preferring
/// revised.
lp::SimplexOptions algorithm_options(std::int64_t which) {
  lp::SimplexOptions options;
  switch (which) {
    case 0: options.algorithm = lp::SimplexAlgorithm::kTableau; break;
    case 1: options.algorithm = lp::SimplexAlgorithm::kAuto; break;
    default: options.algorithm = lp::SimplexAlgorithm::kDual; break;
  }
  return options;
}

lp::Model random_dense_lp(std::size_t vars, std::size_t cons, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  lp::Model m(lp::Objective::kMaximize);
  for (std::size_t j = 0; j < vars; ++j) {
    m.add_variable(0, 1, rng.next_real(0.1, 1.0));
  }
  for (std::size_t r = 0; r < cons; ++r) {
    std::vector<lp::Entry> row;
    for (std::size_t j = 0; j < vars; ++j) {
      row.push_back({j, rng.next_real(0.1, 1.0)});
    }
    m.add_constraint(std::move(row), lp::Sense::kLessEqual,
                     rng.next_real(1.0, double(vars) / 4));
  }
  return m;
}

/// Args: (vars, algorithm_options code).
void BM_SimplexDense(benchmark::State& state) {
  const auto vars = static_cast<std::size_t>(state.range(0));
  const auto model = random_dense_lp(vars, vars / 2, 42);
  const lp::SimplexOptions options = algorithm_options(state.range(1));
  for (auto _ : state) {
    const lp::Solution sol = lp::solve(model, options);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_SimplexDense)
    ->Args({20, 0})->Args({60, 0})->Args({120, 0})
    ->Args({20, 1})->Args({60, 1})->Args({120, 1})
    ->Args({20, 2})->Args({60, 2})->Args({120, 2});

/// Args: (jobs, algorithm_options code). One solve at the upper bound.
void BM_AssignmentLp(benchmark::State& state) {
  UnrelatedGenParams p;
  p.num_jobs = static_cast<std::size_t>(state.range(0));
  p.num_machines = 4;
  p.num_classes = 5;
  const Instance inst = generate_unrelated(p, 7);
  const double T = unrelated_upper_bound(inst);
  AssignmentLpOptions options;
  options.simplex = algorithm_options(state.range(1));
  for (auto _ : state) {
    const auto frac = solve_assignment_lp(inst, T, options);
    benchmark::DoNotOptimize(frac.has_value());
  }
}
BENCHMARK(BM_AssignmentLp)
    ->Args({16, 0})->Args({32, 0})->Args({64, 0})
    ->Args({16, 1})->Args({32, 1})->Args({64, 1})
    ->Args({16, 2})->Args({32, 2})->Args({64, 2});

/// The exact solver's per-node workload: ONE min-makespan relaxation,
/// re-optimized under a rolling chain of pin/unpin mutations. Args: (jobs,
/// algorithm_options code, guard, incremental_duals) — code 2
/// (dual-preferring) is what LpBounder runs; code 1 re-optimizes dually only
/// the probes a pin leaves primal-infeasible. guard=1 runs the post-solve
/// residual audit on every probe (LpBounder's configuration; guard=0
/// quantifies the disarmed safety net, which must be free).
/// incremental_duals=0 recomputes the duals with one BTRAN per dual pivot
/// instead of the drift-guarded y -= theta_d * rho update.
void BM_MakespanLpPinChain(benchmark::State& state) {
  UnrelatedGenParams p;
  p.num_jobs = static_cast<std::size_t>(state.range(0));
  p.num_machines = 4;
  p.num_classes = 5;
  p.eligibility = 0.8;
  const Instance inst = generate_unrelated(p, 13);
  const double hi = unrelated_upper_bound(inst);
  AssignmentLpOptions options;
  options.makespan_objective = true;
  options.simplex = algorithm_options(state.range(1));
  options.simplex.guard = state.range(2) != 0;
  options.simplex.incremental_duals = state.range(3) != 0;
  // Pin targets must be pairs the model actually carries — eligible AND
  // within the proc <= T_build filter — or run_solve short-circuits on
  // impossible_pins_ and the benchmark times an early return instead of
  // the simplex: rotate each job through its admissible-machine list.
  const std::size_t prefix = std::min<std::size_t>(8, inst.num_jobs());
  std::vector<MachineId> pin_target(prefix);
  for (JobId j = 0; j < prefix; ++j) {
    std::vector<MachineId> admissible;
    for (MachineId i = 0; i < inst.num_machines(); ++i) {
      if (inst.eligible(i, j) && inst.proc(i, j) <= hi) admissible.push_back(i);
    }
    pin_target[j] = admissible[j % admissible.size()];
  }
  for (auto _ : state) {
    ParametricAssignmentLp lp(inst, hi, options);
    benchmark::DoNotOptimize(lp.min_makespan(hi));
    // A DFS-flavored pin walk: pin a prefix of jobs, probing after every
    // mutation, then unwind.
    for (JobId j = 0; j < prefix; ++j) {
      lp.pin_job(j, pin_target[j]);
      benchmark::DoNotOptimize(lp.min_makespan(hi));
    }
    for (JobId j = prefix; j-- > 0;) {
      lp.unpin_job(j);
      benchmark::DoNotOptimize(lp.min_makespan(hi));
    }
  }
}
BENCHMARK(BM_MakespanLpPinChain)
    ->Args({32, 1, 0, 1})->Args({32, 2, 0, 1})
    ->Args({64, 1, 0, 1})->Args({64, 2, 0, 1})
    // Safety-net cost on the LpBounder configuration: audited every probe
    // vs disarmed, and the incremental dual update vs per-pivot BTRAN.
    ->Args({64, 2, 1, 1})->Args({64, 2, 0, 0});

/// The geometric T-search solved the pre-PR-3 way: a fresh model and a cold
/// revised solve per probe (no warm starting, no re-parameterization).
void BM_AssignmentLpSearchCold(benchmark::State& state) {
  UnrelatedGenParams p;
  p.num_jobs = static_cast<std::size_t>(state.range(0));
  p.num_machines = 4;
  p.num_classes = 5;
  p.eligibility = 0.8;
  const Instance inst = generate_unrelated(p, 11);
  for (auto _ : state) {
    double lo = std::max(assignment_lp_floor(inst), unrelated_lower_bound(inst));
    double hi = unrelated_upper_bound(inst);
    lo = std::min(lo, hi);
    auto best = solve_assignment_lp(inst, hi);
    while (hi / lo > 1.05) {
      const double mid = std::sqrt(lo * hi);
      if (auto sol = solve_assignment_lp(inst, mid)) {
        hi = mid;
        best = std::move(sol);
      } else {
        lo = mid;
      }
    }
    benchmark::DoNotOptimize(best.has_value());
  }
}
BENCHMARK(BM_AssignmentLpSearchCold)->Arg(32)->Arg(64)->Arg(120);

/// The same search through search_assignment_lp: model built once at hi,
/// every probe warm-started from the previous basis.
void BM_AssignmentLpSearchWarm(benchmark::State& state) {
  UnrelatedGenParams p;
  p.num_jobs = static_cast<std::size_t>(state.range(0));
  p.num_machines = 4;
  p.num_classes = 5;
  p.eligibility = 0.8;
  const Instance inst = generate_unrelated(p, 11);
  for (auto _ : state) {
    const LpSearchResult r = search_assignment_lp(inst, 0.05);
    benchmark::DoNotOptimize(r.feasible_T);
  }
}
BENCHMARK(BM_AssignmentLpSearchWarm)->Arg(32)->Arg(64)->Arg(120);

void BM_RelaxedRaLp(benchmark::State& state) {
  RestrictedGenParams p;
  p.num_jobs = static_cast<std::size_t>(state.range(0));
  p.num_machines = 8;
  p.num_classes = 12;
  p.min_eligible = 2;
  const Instance inst = generate_restricted_class_uniform(p, 9);
  const double T = relaxed_lp_floor(inst) * 1.3;
  for (auto _ : state) {
    const auto lp = solve_relaxed_lp(inst, T);
    benchmark::DoNotOptimize(lp.has_value());
  }
}
BENCHMARK(BM_RelaxedRaLp)->Arg(50)->Arg(150);

}  // namespace

BENCHMARK_MAIN();
