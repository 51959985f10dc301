// setsched_expt — batch experiment harness over the SolverRegistry.
//
// Runs the cross product presets × seeds × solvers as one sharded sweep,
// streams per-cell RunRecords as JSONL/CSV, and prints (and optionally
// exports as BENCH_expt.json) per-(solver, preset) aggregate summaries.
//
// Usage:
//   setsched_expt --plan=<file>
//   setsched_expt --presets=<a,b> (--solvers=<a,b> | --all-solvers)
//                 [--seeds=N | --seeds=A..B]
//
// Options: --epsilon=E --precision=P --time-limit=S --cell-timeout=S
//          --inject=SPEC --lp-audit-interval=N
//          --threads=N --no-timing --jsonl=PATH --csv=PATH --bench-json=PATH
//          --trace=PATH --quiet --progress
//
// --trace records a span trace of the whole sweep (per-cell solve spans over
// named worker tracks, LP/search sub-spans, search-tree node instants) and
// writes Chrome trace-event JSON loadable in chrome://tracing or Perfetto.
// Flags override the corresponding plan-file keys.

#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "api/presets.h"
#include "api/registry.h"
#include "common/check.h"
#include "expt/aggregate.h"
#include "expt/harness.h"
#include "expt/plan.h"
#include "expt/record_io.h"
#include "obs/trace.h"

namespace setsched::expt {
namespace {

struct ExptOptions {
  std::string plan_path;
  bool all_solvers = false;
  bool quiet = false;
  bool progress = false;
  std::string jsonl_path;
  std::string csv_path;
  std::string bench_json_path;
  std::string trace_path;

  // Overrides applied on top of a plan file (only when given on the line).
  std::optional<std::string> presets, solvers, seeds, inject;
  std::optional<double> epsilon, precision, time_limit_s, cell_timeout_s;
  std::optional<std::size_t> threads, lp_audit_interval;
  std::optional<bool> record_timing;
};

void print_usage(std::ostream& os) {
  os << "usage: setsched_expt --plan=<file>\n"
     << "       setsched_expt --presets=<a,b> (--solvers=<a,b> | --all-solvers)\n"
     << "                     [--seeds=N | --seeds=A..B]\n"
     << "options: [--epsilon=E] [--precision=P] [--time-limit=S]\n"
     << "         [--cell-timeout=S]  (per-cell wall-clock watchdog; 0 = off)\n"
     << "         [--inject=SPEC]  (LP fault injection, e.g. all@0.01)\n"
     << "         [--lp-audit-interval=N]  (audit every Nth LP solve; 0 = off)\n"
     << "         [--threads=N] [--no-timing]\n"
     << "         [--quiet] [--jsonl=PATH] [--csv=PATH] [--bench-json=PATH]\n"
     << "         [--trace=PATH]  (Chrome trace-event JSON of the sweep)\n"
     << "         [--progress]  (live completed-cell counter on stderr)\n"
     << "presets:";
  for (const std::string& preset : preset_names()) os << ' ' << preset;
  os << "\nsolvers:";
  for (const std::string& solver : SolverRegistry::global().names()) {
    os << ' ' << solver;
  }
  os << '\n';
}

bool consume(const std::string& arg, const std::string& key,
             std::string* value) {
  if (arg.rfind(key + "=", 0) != 0) return false;
  *value = arg.substr(key.size() + 1);
  return true;
}

std::optional<ExptOptions> parse_args(int argc, char** argv) {
  ExptOptions options;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    std::string value;
    try {
      if (arg == "--all-solvers") {
        options.all_solvers = true;
      } else if (arg == "--no-timing") {
        options.record_timing = false;
      } else if (arg == "--quiet") {
        options.quiet = true;
      } else if (arg == "--progress") {
        options.progress = true;
      } else if (consume(arg, "--plan", &value)) {
        options.plan_path = value;
      } else if (consume(arg, "--presets", &value)) {
        options.presets = value;
      } else if (consume(arg, "--solvers", &value)) {
        options.solvers = value;
      } else if (consume(arg, "--seeds", &value)) {
        options.seeds = value;
      } else if (consume(arg, "--epsilon", &value)) {
        options.epsilon = std::stod(value);
      } else if (consume(arg, "--precision", &value)) {
        options.precision = std::stod(value);
      } else if (consume(arg, "--time-limit", &value)) {
        options.time_limit_s = std::stod(value);
      } else if (consume(arg, "--cell-timeout", &value)) {
        options.cell_timeout_s = std::stod(value);
      } else if (consume(arg, "--inject", &value)) {
        options.inject = value;
      } else if (consume(arg, "--lp-audit-interval", &value)) {
        options.lp_audit_interval =
            static_cast<std::size_t>(parse_u64(value, "lp_audit_interval"));
      } else if (consume(arg, "--threads", &value)) {
        options.threads = static_cast<std::size_t>(parse_u64(value, "threads"));
      } else if (consume(arg, "--jsonl", &value)) {
        options.jsonl_path = value;
      } else if (consume(arg, "--csv", &value)) {
        options.csv_path = value;
      } else if (consume(arg, "--bench-json", &value)) {
        options.bench_json_path = value;
      } else if (consume(arg, "--trace", &value)) {
        options.trace_path = value;
      } else {
        std::cerr << "setsched_expt: unknown argument '" << arg << "'\n";
        return std::nullopt;
      }
    } catch (const std::exception&) {
      std::cerr << "setsched_expt: bad numeric value in '" << arg << "'\n";
      return std::nullopt;
    }
  }
  return options;
}

ExperimentPlan build_plan(const ExptOptions& options) {
  ExperimentPlan plan;
  if (!options.plan_path.empty()) plan = load_plan(options.plan_path);
  if (options.presets) plan.presets = split_list(*options.presets);
  if (options.solvers) plan.solvers = split_list(*options.solvers);
  if (options.all_solvers) plan.solvers = SolverRegistry::global().names();
  if (options.seeds) {
    parse_seed_range(*options.seeds, &plan.seed_begin, &plan.seed_end);
  }
  if (options.epsilon) plan.epsilon = *options.epsilon;
  if (options.precision) plan.precision = *options.precision;
  if (options.time_limit_s) plan.time_limit_s = *options.time_limit_s;
  if (options.cell_timeout_s) plan.cell_timeout_s = *options.cell_timeout_s;
  if (options.inject) plan.inject = *options.inject;
  if (options.lp_audit_interval) {
    plan.lp_audit_interval = *options.lp_audit_interval;
  }
  if (options.threads) plan.threads = *options.threads;
  if (options.record_timing) plan.record_timing = *options.record_timing;
  plan.validate();
  return plan;
}

void write_file(const std::string& path, const std::string& what,
                const std::function<void(std::ostream&)>& body) {
  std::ofstream file(path);
  check(file.good(), "cannot open " + what + " output file '" + path + "'");
  body(file);
  check(file.good(), "failed writing " + what + " to '" + path + "'");
}

int expt_main(int argc, char** argv) {
  const std::optional<ExptOptions> options = parse_args(argc, argv);
  if (!options) {
    print_usage(std::cerr);
    return 1;
  }
  if (options->plan_path.empty() && !options->presets) {
    std::cerr << "setsched_expt: pick --plan=<file> or --presets=<a,b>\n";
    print_usage(std::cerr);
    return 1;
  }
  try {
    const ExperimentPlan plan = build_plan(*options);
    if (!options->quiet) {
      std::cout << "sweep: " << plan.presets.size() << " presets x "
                << plan.num_seeds() << " seeds x " << plan.solvers.size()
                << " solvers = " << plan.num_cells() << " cells\n";
    }
    if (!options->trace_path.empty()) obs::start_trace();
    // Progress goes to stderr so piped/captured stdout stays parseable; the
    // harness serializes callback invocations (see expt/harness.h).
    ProgressFn progress;
    if (options->progress) {
      progress = [](std::size_t done, std::size_t total) {
        std::cerr << '\r' << "cells " << done << '/' << total
                  << (done == total ? "\n" : "") << std::flush;
      };
    }
    const std::vector<RunRecord> records = run_experiment(plan, progress);
    if (!options->trace_path.empty()) {
      obs::stop_trace();
      write_file(options->trace_path, "trace",
                 [](std::ostream& os) { obs::write_chrome_trace(os); });
    }
    const std::vector<AggregateSummary> summaries = aggregate(records);

    if (!options->jsonl_path.empty()) {
      write_file(options->jsonl_path, "JSONL",
                 [&](std::ostream& os) { write_jsonl(os, records); });
    }
    if (!options->csv_path.empty()) {
      write_file(options->csv_path, "CSV",
                 [&](std::ostream& os) { write_csv(os, records); });
    }
    if (!options->bench_json_path.empty()) {
      write_file(options->bench_json_path, "bench json", [&](std::ostream& os) {
        write_bench_json(os, plan, summaries);
      });
    }
    if (!options->quiet) {
      summary_table(summaries).print(std::cout);
    }

    bool any_failed = false;
    for (const RunRecord& record : records) {
      if (record.status == RunStatus::kInvalid ||
          record.status == RunStatus::kError) {
        any_failed = true;
        std::cerr << "setsched_expt: " << record.solver << " on "
                  << record.preset << " seed " << record.seed << ": "
                  << record.error << "\n";
      }
    }
    return any_failed ? 2 : 0;
  } catch (const std::exception& e) {
    std::cerr << "setsched_expt: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace
}  // namespace setsched::expt

int main(int argc, char** argv) {
  return setsched::expt::expt_main(argc, argv);
}
