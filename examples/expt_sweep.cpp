// Programmatic use of the batch experiment harness (src/expt/): build an
// ExperimentPlan in code, run the sharded sweep, then slice the structured
// RunRecords three ways — raw JSONL, a per-(solver, preset) aggregate table,
// and a custom query the CLI does not offer (worst cell per solver). The
// programmatic counterpart of `setsched_expt`.
//
//   ./examples/example_expt_sweep

#include <iostream>
#include <map>
#include <sstream>

#include "expt/aggregate.h"
#include "expt/harness.h"
#include "expt/plan.h"
#include "expt/record_io.h"

using namespace setsched;
using namespace setsched::expt;

int main() {
  ExperimentPlan plan;
  plan.presets = {"uniform-small", "unrelated-small"};
  plan.solvers = {"best-machine", "greedy", "local-search", "lpt"};
  plan.seed_begin = 1;
  plan.seed_end = 5;
  plan.threads = 2;  // private two-worker pool; 0 would share default_pool()

  const std::vector<RunRecord> records = run_experiment(plan);
  std::cout << "ran " << records.size() << " cells ("
            << plan.presets.size() << " presets x " << plan.num_seeds()
            << " seeds x " << plan.solvers.size() << " solvers)\n\n";

  // 1. Records stream as JSONL to any std::ostream (here: the first two).
  std::ostringstream jsonl;
  write_jsonl(jsonl, std::span(records).first(2));
  std::cout << "first two records as JSONL:\n" << jsonl.str() << '\n';

  // 2. The same rollup the CLIs print.
  const std::vector<AggregateSummary> summaries = aggregate(records);
  summary_table(summaries).print(std::cout);

  // 3. Custom analysis over the raw records: each solver's worst cell.
  std::map<std::string, const RunRecord*> worst;
  for (const RunRecord& record : records) {
    if (record.status != RunStatus::kOk) continue;
    const RunRecord*& slot = worst[record.solver];
    if (slot == nullptr || record.ratio > slot->ratio) slot = &record;
  }
  std::cout << "\nworst cell per solver:\n";
  for (const auto& [solver, record] : worst) {
    std::cout << "  " << solver << ": ratio " << record->ratio << " on "
              << record->preset << " seed " << record->seed << '\n';
  }
  return 0;
}
