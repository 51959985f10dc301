// setsched_cli — unified driver over the SolverRegistry.
//
// Usage:
//   setsched_cli --list
//   setsched_cli --solver=<name> (--instance=<file> | --generate=<preset>)
//   setsched_cli --all           (--instance=<file> | --generate=<preset>)
//   setsched_cli --batch (--solver=<name> ... | --all) --generate=<presets>
//                [--seeds=N | --seeds=A..B] [--threads=N] [--jsonl=PATH]
//                [--no-timing]
//
// Options: --seed=N --epsilon=E --precision=P --time-limit=S
//          --inject=SPEC --lp-audit-interval=N --csv
//          --trace=PATH (Chrome trace-event JSON of the run; both modes)
// Presets: uniform-small uniform-large unrelated-small unrelated-medium
//          unrelated-midsize restricted class-uniform planted
// (The README's flag table and docs/SOLVERS.md mirror this block; the
// docs-vs-registry ctest keeps the preset/solver listings honest.)

#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/presets.h"
#include "api/registry.h"
#include "common/check.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/bounds.h"
#include "core/schedule.h"
#include "expt/aggregate.h"
#include "expt/harness.h"
#include "expt/plan.h"
#include "expt/record_io.h"
#include "lp/fault.h"
#include "obs/phase.h"
#include "obs/trace.h"

namespace setsched {
namespace {

struct CliOptions {
  std::vector<std::string> solvers;
  bool all = false;
  bool list = false;
  bool csv = false;
  std::string instance_path;
  std::string preset;
  std::uint64_t seed = 1;
  SolverContext context;
  /// LP fault-injection spec (lp::FaultPlan::parse syntax); seeded from
  /// --seed in single-run mode, per cell_seed in --batch mode. Empty = off.
  std::string inject;
  std::size_t lp_audit_interval = 0;
  // --batch sweep mode (delegates to the src/expt harness).
  bool batch = false;
  std::string seeds;  // "N" or "A..B"; empty means the single --seed
  std::size_t threads = 0;
  std::string jsonl_path;
  bool record_timing = true;
  std::string trace_path;  // valid in both single-run and --batch modes
};

void print_usage(std::ostream& os) {
  os << "usage: setsched_cli --list\n"
     << "       setsched_cli (--solver=<name> ... | --all)\n"
     << "                    (--instance=<file> | --generate=<preset>)\n"
     << "                    [--seed=N] [--epsilon=E] [--precision=P]\n"
     << "                    [--time-limit=S] [--csv]\n"
     << "                    [--inject=SPEC] [--lp-audit-interval=N]\n"
     << "                    [--trace=PATH]\n"
     << "       setsched_cli --batch (--solver=<name> ... | --all)\n"
     << "                    --generate=<preset,...> [--seeds=N | --seeds=A..B]\n"
     << "                    [--threads=N] [--jsonl=PATH] [--no-timing]\n"
     << "                    [--trace=PATH]\n"
     << "presets:";
  for (const std::string& preset : preset_names()) os << ' ' << preset;
  os << '\n';
}

bool consume(const std::string& arg, const std::string& key, std::string* value) {
  if (arg.rfind(key + "=", 0) != 0) return false;
  *value = arg.substr(key.size() + 1);
  return true;
}

std::optional<CliOptions> parse_args(int argc, char** argv) {
  CliOptions options;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    std::string value;
    try {
      if (arg == "--list") {
        options.list = true;
      } else if (arg == "--all") {
        options.all = true;
      } else if (arg == "--csv") {
        options.csv = true;
      } else if (arg == "--batch") {
        options.batch = true;
      } else if (arg == "--no-timing") {
        options.record_timing = false;
      } else if (consume(arg, "--seeds", &value)) {
        options.seeds = value;
      } else if (consume(arg, "--threads", &value)) {
        options.threads =
            static_cast<std::size_t>(expt::parse_u64(value, "threads"));
      } else if (consume(arg, "--jsonl", &value)) {
        options.jsonl_path = value;
      } else if (consume(arg, "--trace", &value)) {
        options.trace_path = value;
      } else if (consume(arg, "--solver", &value)) {
        options.solvers.push_back(value);
      } else if (consume(arg, "--instance", &value)) {
        options.instance_path = value;
      } else if (consume(arg, "--generate", &value)) {
        options.preset = value;
      } else if (consume(arg, "--seed", &value)) {
        options.seed = std::stoull(value);
      } else if (consume(arg, "--epsilon", &value)) {
        options.context.epsilon = std::stod(value);
      } else if (consume(arg, "--precision", &value)) {
        options.context.precision = std::stod(value);
      } else if (consume(arg, "--time-limit", &value)) {
        options.context.time_limit_s = std::stod(value);
      } else if (consume(arg, "--inject", &value)) {
        options.inject = value;
      } else if (consume(arg, "--lp-audit-interval", &value)) {
        options.lp_audit_interval =
            static_cast<std::size_t>(expt::parse_u64(value, "lp_audit_interval"));
      } else {
        std::cerr << "setsched_cli: unknown argument '" << arg << "'\n";
        return std::nullopt;
      }
    } catch (const std::exception&) {
      std::cerr << "setsched_cli: bad numeric value in '" << arg << "'\n";
      return std::nullopt;
    }
  }
  options.context.seed = options.seed;
  return options;
}

struct RunOutcome {
  std::string solver;
  bool supported = true;
  bool valid = false;
  double makespan = 0.0;
  double ratio = 0.0;
  std::size_t setups = 0;
  double time_ms = 0.0;
  SolverStats stats;
  std::string error;
};

/// Certificate column: "yes" for a proven optimum, the certified gap for a
/// budget-exhausted exact/dive run, "-" for heuristics. Makes a node/time
/// budget abort visible instead of masquerading as ground truth.
std::string describe_certificate(const SolverStats& stats) {
  if (stats.proven_optimal) return "yes";
  if (stats.gap >= 0.0) {
    std::ostringstream os;
    os << "gap " << format_double(stats.gap);
    return os.str();
  }
  return "-";
}

RunOutcome run_solver(const std::string& name, const ProblemInput& input,
                      const SolverContext& context, double lower_bound) {
  RunOutcome outcome;
  outcome.solver = name;
  try {
    const std::unique_ptr<Solver> solver = SolverRegistry::global().create(name);
    if (!solver->supports(input)) {
      outcome.supported = false;
      outcome.error = "precondition not met";
      return outcome;
    }
    std::optional<obs::TraceSpan> span;
    if (obs::trace_enabled()) {
      span.emplace(obs::intern(name), "solve");
    }
    const obs::PhaseTimes phases_before = obs::phase_snapshot();
    Timer timer;
    const ScheduleResult result = solver->solve(input, context);
    outcome.time_ms = timer.elapsed_ms();
    const obs::PhaseTimes phase_delta = obs::phase_snapshot() - phases_before;
    if (const auto error = schedule_error(input.instance, result.schedule)) {
      outcome.error = "invalid schedule: " + *error;
      return outcome;
    }
    const double evaluated = makespan(input.instance, result.schedule);
    if (std::abs(evaluated - result.makespan) >
        1e-9 * std::max(1.0, evaluated)) {
      outcome.error = "reported makespan disagrees with schedule";
      return outcome;
    }
    outcome.valid = true;
    outcome.makespan = result.makespan;
    outcome.ratio = lower_bound > 0.0 ? result.makespan / lower_bound : 1.0;
    outcome.setups = total_setups(input.instance, result.schedule);
    outcome.stats = result.stats;
    // Phase accounting is captured here at the measurement boundary, not by
    // the solver (which reports algorithmic counters only).
    outcome.stats.phase_ms = phase_delta;
  } catch (const std::exception& e) {
    outcome.error = e.what();
  }
  return outcome;
}

int list_solvers(bool csv) {
  Table table({"solver"});
  for (const std::string& name : SolverRegistry::global().names()) {
    table.row().add(name);
  }
  csv ? table.print_csv(std::cout) : table.print(std::cout);
  return 0;
}

int run(const CliOptions& options) {
  // Single-run mode always reports time_ms, so always fill its breakdown.
  obs::set_timing_enabled(true);
  const ProblemInput input = options.instance_path.empty()
                                 ? generate_preset(options.preset, options.seed)
                                 : load_problem(options.instance_path);
  const double lower_bound = unrelated_lower_bound(input.instance);

  std::vector<std::string> names = options.solvers;
  if (options.all) names = SolverRegistry::global().names();

  std::vector<RunOutcome> outcomes(names.size());
  SolverContext context = options.context;
  context.lp_audit_interval = options.lp_audit_interval;
  if (!options.inject.empty()) {
    context.fault_plan = lp::FaultPlan::parse(options.inject, options.seed);
  }
  if (options.all && names.size() > 1) {
    // One solver per pool task; solvers must not nest into the same pool.
    context.pool = nullptr;
    ThreadPool& pool = default_pool();
    pool.parallel_for(0, names.size(), [&](std::size_t s) {
      outcomes[s] = run_solver(names[s], input, context, lower_bound);
    });
  } else {
    context.pool = &default_pool();
    for (std::size_t s = 0; s < names.size(); ++s) {
      outcomes[s] = run_solver(names[s], input, context, lower_bound);
    }
  }

  std::ostringstream describe_source;
  if (!options.instance_path.empty()) {
    describe_source << "instance " << options.instance_path;
  } else {
    describe_source << "preset " << options.preset << " (seed " << options.seed
                    << ")";
  }
  if (!options.csv) {
    std::cout << describe_source.str() << ": " << input.instance.num_jobs()
              << " jobs, " << input.instance.num_machines() << " machines, "
              << input.instance.num_classes() << " classes, lower bound "
              << format_double(lower_bound) << "\n\n";
  }

  Table table({"solver", "status", "makespan", "ratio_lb", "setups", "optimal",
               "time_ms", "lp%"});
  bool any_failed = false;
  for (const RunOutcome& outcome : outcomes) {
    table.row().add(outcome.solver);
    if (outcome.valid) {
      table.add("ok")
          .add(outcome.makespan)
          .add(outcome.ratio)
          .add(outcome.setups)
          .add(describe_certificate(outcome.stats))
          .add(outcome.time_ms, 1);
      // Percent of the solve's wall clock inside the LP substrate.
      if (outcome.time_ms > 0.0) {
        table.add(100.0 * outcome.stats.phase_ms.lp_ms() / outcome.time_ms, 1);
      } else {
        table.add("-");
      }
    } else if (!outcome.supported) {
      table.add("skipped").add("-").add("-").add("-").add("-").add("-").add(
          "-");
    } else {
      any_failed = true;
      table.add("FAILED").add("-").add("-").add("-").add("-").add("-").add("-");
      std::cerr << "setsched_cli: " << outcome.solver << ": " << outcome.error
                << "\n";
    }
  }
  if (options.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return any_failed ? 2 : 0;
}

// --batch: one sweep over presets × seeds × solvers via the expt harness,
// reported as the per-(solver, preset) aggregate table.
int run_batch(const CliOptions& options) {
  expt::ExperimentPlan plan;
  plan.presets = expt::split_list(options.preset);
  plan.solvers =
      options.all ? SolverRegistry::global().names() : options.solvers;
  if (options.seeds.empty()) {
    plan.seed_begin = plan.seed_end = options.seed;
  } else {
    expt::parse_seed_range(options.seeds, &plan.seed_begin, &plan.seed_end);
  }
  plan.epsilon = options.context.epsilon;
  plan.precision = options.context.precision;
  plan.time_limit_s = options.context.time_limit_s;
  plan.inject = options.inject;
  plan.lp_audit_interval = options.lp_audit_interval;
  plan.threads = options.threads;
  plan.record_timing = options.record_timing;
  plan.validate();

  if (!options.csv) {
    std::cout << "batch sweep: " << plan.presets.size() << " presets x "
              << plan.num_seeds() << " seeds x " << plan.solvers.size()
              << " solvers = " << plan.num_cells() << " cells\n\n";
  }
  const std::vector<expt::RunRecord> records = expt::run_experiment(plan);
  if (!options.jsonl_path.empty()) {
    std::ofstream file(options.jsonl_path);
    check(file.good(),
          "cannot open JSONL output file '" + options.jsonl_path + "'");
    expt::write_jsonl(file, records);
    check(file.good(), "failed writing JSONL to '" + options.jsonl_path + "'");
  }

  const Table table = expt::summary_table(expt::aggregate(records));
  options.csv ? table.print_csv(std::cout) : table.print(std::cout);

  bool any_failed = false;
  for (const expt::RunRecord& record : records) {
    if (record.status == expt::RunStatus::kInvalid ||
        record.status == expt::RunStatus::kError) {
      any_failed = true;
      std::cerr << "setsched_cli: " << record.solver << " on " << record.preset
                << " seed " << record.seed << ": " << record.error << "\n";
    }
  }
  return any_failed ? 2 : 0;
}

int cli_main(int argc, char** argv) {
  const std::optional<CliOptions> options = parse_args(argc, argv);
  if (!options) {
    print_usage(std::cerr);
    return 1;
  }
  if (options->list) return list_solvers(options->csv);
  if (options->solvers.empty() && !options->all) {
    std::cerr << "setsched_cli: pick --solver=<name> or --all\n";
    print_usage(std::cerr);
    return 1;
  }
  if (options->batch &&
      (options->preset.empty() || !options->instance_path.empty())) {
    std::cerr << "setsched_cli: --batch sweeps generated presets only "
                 "(--generate=<preset,...>)\n";
    print_usage(std::cerr);
    return 1;
  }
  if (!options->batch &&
      (!options->seeds.empty() || options->threads != 0 ||
       !options->jsonl_path.empty() || !options->record_timing)) {
    std::cerr << "setsched_cli: --seeds/--threads/--jsonl/--no-timing "
                 "require --batch\n";
    print_usage(std::cerr);
    return 1;
  }
  if (!options->batch &&
      options->instance_path.empty() == options->preset.empty()) {
    std::cerr << "setsched_cli: pick exactly one of --instance / --generate\n";
    print_usage(std::cerr);
    return 1;
  }
  try {
    if (!options->trace_path.empty()) obs::start_trace();
    const int rc = options->batch ? run_batch(*options) : run(*options);
    if (!options->trace_path.empty()) {
      obs::stop_trace();
      std::ofstream file(options->trace_path);
      check(file.good(),
            "cannot open trace output file '" + options->trace_path + "'");
      obs::write_chrome_trace(file);
      check(file.good(),
            "failed writing trace to '" + options->trace_path + "'");
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "setsched_cli: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace
}  // namespace setsched

int main(int argc, char** argv) { return setsched::cli_main(argc, argv); }
