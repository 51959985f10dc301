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
// Options: --epsilon=E --precision=P --time-limit=S
//          --inject=SPEC --lp-audit
//          --threads=N --no-timing --jsonl=PATH --csv=PATH --bench-json=PATH
//          --trace=PATH --quiet --progress
//
// --trace records a span trace of the whole sweep (per-cell solve spans over
// named worker tracks, LP/search sub-spans, search-tree node instants) and
// writes Chrome trace-event JSON loadable in chrome://tracing or Perfetto.
// Every sweep-knob flag is a plan key (see apply_plan_key in expt/plan.h):
// --plan is loaded first, then the flags are applied in order, so a flag
// overrides the file wherever it appears on the line.

#include <algorithm>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
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

/// `--flag=value` flags and the plan key each one sets.
constexpr std::pair<std::string_view, std::string_view> kPlanFlags[] = {
    {"--presets", "presets"},
    {"--solvers", "solvers"},
    {"--seeds", "seeds"},
    {"--epsilon", "epsilon"},
    {"--precision", "precision"},
    {"--time-limit", "time_limit_s"},
    {"--inject", "inject"},
    {"--threads", "threads"},
};

struct ExptOptions {
  std::string plan_path;
  bool quiet = false;
  bool progress = false;
  std::string jsonl_path;
  std::string csv_path;
  std::string bench_json_path;
  std::string trace_path;
  /// (plan key, value) overrides in command-line order.
  std::vector<std::pair<std::string, std::string>> plan_keys;
};

void print_usage(std::ostream& os) {
  os << "usage: setsched_expt --plan=<file>\n"
     << "       setsched_expt --presets=<a,b> (--solvers=<a,b> | --all-solvers)\n"
     << "                     [--seeds=N | --seeds=A..B]\n"
     << "options: [--epsilon=E] [--precision=P] [--time-limit=S]\n"
     << "         [--inject=SPEC]  (LP fault injection, e.g. all@0.01)\n"
     << "         [--lp-audit]  (audit every LP solve, not only exact probes)\n"
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

bool consume(const std::string& arg, std::string_view key,
             std::string* value) {
  if (arg.rfind(std::string(key) + "=", 0) != 0) return false;
  *value = arg.substr(key.size() + 1);
  return true;
}

/// Sets the plan key of a kPlanFlags flag; false if `arg` is none of them.
bool consume_plan_flag(const std::string& arg, ExptOptions* options) {
  std::string value;
  for (const auto& [flag, key] : kPlanFlags) {
    if (consume(arg, flag, &value)) {
      options->plan_keys.emplace_back(key, std::move(value));
      return true;
    }
  }
  return false;
}

std::optional<ExptOptions> parse_args(int argc, char** argv) {
  ExptOptions options;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (consume_plan_flag(arg, &options)) continue;
    std::string value;
    if (arg == "--all-solvers") {
      options.plan_keys.emplace_back("solvers", "all");
    } else if (arg == "--no-timing") {
      options.plan_keys.emplace_back("timing", "off");
    } else if (arg == "--lp-audit") {
      options.plan_keys.emplace_back("lp_audit", "on");
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--progress") {
      options.progress = true;
    } else if (consume(arg, "--plan", &value)) {
      options.plan_path = value;
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
  }
  return options;
}

ExperimentPlan build_plan(const ExptOptions& options) {
  ExperimentPlan plan;
  if (!options.plan_path.empty()) plan = load_plan(options.plan_path);
  for (const auto& [key, value] : options.plan_keys) {
    apply_plan_key(plan, key, value);
  }
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
  const auto sets_presets = [](const auto& entry) {
    return entry.first == "presets";
  };
  if (options->plan_path.empty() &&
      std::none_of(options->plan_keys.begin(), options->plan_keys.end(),
                   sets_presets)) {
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
