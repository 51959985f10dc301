// setsched_cli — unified driver over the SolverRegistry.
//
// Usage:
//   setsched_cli --list
//   setsched_cli --solver=<name> (--instance=<file> | --generate=<preset>)
//   setsched_cli --all           (--instance=<file> | --generate=<preset>)
//
// Options: --seed=N --epsilon=E --precision=P --time-limit=S
//          --inject=SPEC --lp-audit --csv
//          --trace=PATH (Chrome trace-event JSON of the run)
// Presets: uniform-small uniform-large unrelated-small unrelated-medium
//          unrelated-midsize restricted class-uniform planted
// Sweeps over presets x seeds x solvers are setsched_expt's job.
// (The README's flag table and docs/SOLVERS.md mirror this block; the
// docs-vs-registry ctest keeps the preset/solver listings honest.)

#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/presets.h"
#include "api/registry.h"
#include "common/check.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "expt/harness.h"
#include "expt/plan.h"
#include "expt/record.h"
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
  /// LP fault-injection spec (lp::FaultPlan::parse syntax), seeded from
  /// --seed. Empty = off.
  std::string inject;
  std::string trace_path;
};

void print_usage(std::ostream& os) {
  os << "usage: setsched_cli --list\n"
     << "       setsched_cli (--solver=<name> ... | --all)\n"
     << "                    (--instance=<file> | --generate=<preset>)\n"
     << "                    [--seed=N] [--epsilon=E] [--precision=P]\n"
     << "                    [--time-limit=S] [--csv]\n"
     << "                    [--inject=SPEC] [--lp-audit]\n"
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
      } else if (consume(arg, "--trace", &value)) {
        options.trace_path = value;
      } else if (consume(arg, "--solver", &value)) {
        options.solvers.push_back(value);
      } else if (consume(arg, "--instance", &value)) {
        options.instance_path = value;
      } else if (consume(arg, "--generate", &value)) {
        options.preset = value;
      } else if (consume(arg, "--seed", &value)) {
        options.seed = expt::parse_u64(value, "seed");
      } else if (consume(arg, "--epsilon", &value)) {
        options.context.epsilon = expt::parse_positive_double(value, "epsilon");
      } else if (consume(arg, "--precision", &value)) {
        options.context.precision =
            expt::parse_positive_double(value, "precision");
      } else if (consume(arg, "--time-limit", &value)) {
        options.context.time_limit_s =
            expt::parse_positive_double(value, "time_limit_s");
      } else if (consume(arg, "--inject", &value)) {
        options.inject = value;
      } else if (arg == "--lp-audit") {
        options.context.lp_audit = true;
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

/// Certificate column: "yes" for a proven optimum, the certified gap for a
/// budget-exhausted exact/dive run, "-" for heuristics. Makes a node/time
/// budget abort visible instead of masquerading as ground truth.
std::string describe_certificate(const expt::RunRecord& record) {
  if (record.proven_optimal) return "yes";
  if (record.gap >= 0.0) {
    std::ostringstream os;
    os << "gap " << format_double(record.gap);
    return os.str();
  }
  return "-";
}

expt::RunRecord solve_one(const std::string& name, const ProblemInput& input,
                          const SolverContext& context, double lower_bound) {
  expt::RunRecord record;
  record.solver = name;
  std::unique_ptr<Solver> solver;
  try {
    solver = SolverRegistry::global().create(name);
  } catch (const std::exception& e) {
    record.status = expt::RunStatus::kError;
    record.error = e.what();
    return record;
  }
  return expt::validated_solve(*solver, input, context, lower_bound,
                               /*record_timing=*/true, std::move(record));
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
  const double bound = lower_bound(input);

  std::vector<std::string> names = options.solvers;
  if (options.all) names = SolverRegistry::global().names();

  std::vector<expt::RunRecord> records(names.size());
  SolverContext context = options.context;
  if (!options.inject.empty()) {
    context.fault_plan = lp::FaultPlan::parse(options.inject, options.seed);
  }
  if (options.all && names.size() > 1) {
    // One solver per pool task; solvers must not nest into the same pool.
    context.pool = nullptr;
    ThreadPool& pool = default_pool();
    pool.parallel_for(0, names.size(), [&](std::size_t s) {
      records[s] = solve_one(names[s], input, context, bound);
    });
  } else {
    context.pool = &default_pool();
    for (std::size_t s = 0; s < names.size(); ++s) {
      records[s] = solve_one(names[s], input, context, bound);
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
              << format_double(bound) << "\n\n";
  }

  Table table({"solver", "status", "makespan", "ratio_lb", "setups", "optimal",
               "time_ms", "lp%"});
  bool any_failed = false;
  for (const expt::RunRecord& record : records) {
    table.row().add(record.solver);
    if (record.status == expt::RunStatus::kOk) {
      table.add("ok")
          .add(record.makespan)
          .add(record.ratio)
          .add(record.setups)
          .add(describe_certificate(record))
          .add(record.time_ms, 1);
      // Percent of the solve's wall clock inside the LP substrate.
      if (record.time_ms > 0.0) {
        table.add(100.0 * record.phase_ms.lp_ms() / record.time_ms, 1);
      } else {
        table.add("-");
      }
    } else if (record.status == expt::RunStatus::kSkipped) {
      table.add("skipped").add("-").add("-").add("-").add("-").add("-").add(
          "-");
    } else {
      any_failed = true;
      table.add("FAILED").add("-").add("-").add("-").add("-").add("-").add("-");
      std::cerr << "setsched_cli: " << record.solver << ": " << record.error
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
  if (options->instance_path.empty() == options->preset.empty()) {
    std::cerr << "setsched_cli: pick exactly one of --instance / --generate\n";
    print_usage(std::cerr);
    return 1;
  }
  try {
    if (!options->trace_path.empty()) obs::start_trace();
    const int rc = run(*options);
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
