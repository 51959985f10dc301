// Docs-vs-code consistency: the tables in docs/SOLVERS.md must list exactly
// the registered solvers and presets, and docs/BENCH_SCHEMA.md must document
// every key the JSONL writer emits and exactly the plan fields of
// BENCH_expt.json. These tests are what keeps the docs/ subsystem from
// rotting: adding a solver, a preset, a RunRecord field or a plan field
// without updating the page is a test failure, not a silent drift.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/presets.h"
#include "api/registry.h"
#include "expt/aggregate.h"
#include "expt/plan.h"
#include "expt/record_io.h"
#include "obs/phase.h"

namespace setsched {
namespace {

std::string read_doc(const std::string& name) {
  const std::string path = std::string(SETSCHED_SOURCE_DIR) + "/docs/" + name;
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "cannot open " << path;
  std::ostringstream content;
  content << file.rdbuf();
  return content.str();
}

/// Extracts the section of `text` between the heading line `## <title>` and
/// the next `## ` heading (or end of file).
std::string section(const std::string& text, const std::string& title) {
  const std::string heading = "## " + title;
  const std::size_t start = text.find(heading);
  EXPECT_NE(start, std::string::npos) << "missing section '" << heading << "'";
  if (start == std::string::npos) return {};
  const std::size_t end = text.find("\n## ", start + heading.size());
  return text.substr(start, end == std::string::npos ? std::string::npos
                                                     : end - start);
}

/// First backticked token of every markdown table body row ("| `name` ...").
std::set<std::string> table_names(const std::string& sect) {
  std::set<std::string> names;
  std::istringstream lines(sect);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t open = line.find("| `");
    if (open != 0) continue;  // not a table body row with a backticked name
    const std::size_t from = open + 3;
    const std::size_t close = line.find('`', from);
    if (close == std::string::npos) continue;
    names.insert(line.substr(from, close - from));
  }
  return names;
}

testing::AssertionResult same_sets(const std::set<std::string>& documented,
                                   const std::vector<std::string>& actual,
                                   const char* what) {
  const std::set<std::string> live(actual.begin(), actual.end());
  std::ostringstream diff;
  for (const std::string& name : live) {
    if (!documented.contains(name)) {
      diff << " undocumented " << what << " '" << name << "';";
    }
  }
  for (const std::string& name : documented) {
    if (!live.contains(name)) {
      diff << " stale documented " << what << " '" << name << "';";
    }
  }
  if (diff.str().empty()) return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << "the docs disagree with the code:" << diff.str();
}

/// Every JSON object key ("key": ...) in `text`, in order of appearance.
std::vector<std::string> json_keys(const std::string& text) {
  std::vector<std::string> keys;
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t close = text.find('"', pos + 1);
    if (close == std::string::npos) break;
    const std::string token = text.substr(pos + 1, close - pos - 1);
    pos = close + 1;
    if (pos < text.size() && text[pos] == ':') keys.push_back(token);
  }
  return keys;
}

/// The body of the `"plan": { ... }` object in `text` (it nests nothing).
std::string plan_block(const std::string& text) {
  const std::size_t open = text.find("\"plan\": {");
  EXPECT_NE(open, std::string::npos) << "no plan object";
  if (open == std::string::npos) return {};
  const std::size_t close = text.find('}', open);
  return text.substr(open + 9, close - open - 9);
}

TEST(Docs, SolversTableMatchesRegistry) {
  const std::string doc = read_doc("SOLVERS.md");
  EXPECT_TRUE(same_sets(table_names(section(doc, "Solvers")),
                        SolverRegistry::global().names(), "solver"));
}

TEST(Docs, PresetsTableMatchesPresetNames) {
  const std::string doc = read_doc("SOLVERS.md");
  EXPECT_TRUE(same_sets(table_names(section(doc, "Presets")), preset_names(),
                        "preset"));
}

TEST(Docs, BenchSchemaDocumentsEveryJsonlKey) {
  std::ostringstream row;
  expt::write_jsonl(row, expt::RunRecord{});
  const std::string line = row.str();
  const std::string schema = read_doc("BENCH_SCHEMA.md");

  // Pull the keys out of the emitted JSONL line and require a backticked
  // mention of each in the schema page.
  const std::vector<std::string> keys = json_keys(line);
  for (const std::string& key : keys) {
    EXPECT_NE(schema.find("`" + key + "`"), std::string::npos)
        << "JSONL key '" << key << "' is not documented in BENCH_SCHEMA.md";
  }
  EXPECT_EQ(keys.size(), 34u) << "RunRecord schema size changed; update "
                                 "docs/BENCH_SCHEMA.md and this pin";

  // The nested phase_ms keys are elided when zero, so the default record
  // above never exercises them: emit one record with every phase non-zero
  // and require each phase name to be documented too.
  expt::RunRecord traced;
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    traced.phase_ms[static_cast<obs::Phase>(i)] = 1.0;
  }
  std::ostringstream traced_row;
  expt::write_jsonl(traced_row, traced);
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const std::string name(obs::phase_name(static_cast<obs::Phase>(i)));
    EXPECT_NE(traced_row.str().find("\"" + name + "\":"), std::string::npos);
    EXPECT_NE(schema.find("`" + name + "`"), std::string::npos)
        << "phase '" << name << "' is not documented in BENCH_SCHEMA.md";
  }
}

TEST(Docs, BenchSchemaPlanBlockMatchesWriter) {
  std::ostringstream bench;
  expt::write_bench_json(bench, expt::ExperimentPlan{}, {});
  const std::vector<std::string> emitted = json_keys(plan_block(bench.str()));
  const std::vector<std::string> documented =
      json_keys(plan_block(read_doc("BENCH_SCHEMA.md")));
  EXPECT_TRUE(same_sets({documented.begin(), documented.end()}, emitted,
                        "BENCH_expt.json plan field"));
}

TEST(Docs, CorePagesExistAndAreNonTrivial) {
  for (const char* name : {"ARCHITECTURE.md", "LP.md", "SOLVERS.md",
                           "BENCH_SCHEMA.md", "OBSERVABILITY.md",
                           "ROBUSTNESS.md"}) {
    const std::string doc = read_doc(name);
    EXPECT_GT(doc.size(), 1000u) << name << " looks like a stub";
  }
  // The architecture page must name every src/ subsystem.
  const std::string arch = read_doc("ARCHITECTURE.md");
  for (const char* subsystem :
       {"src/common", "src/core", "src/lp", "src/unrelated", "src/colgen",
        "src/restricted", "src/uniform", "src/setcover", "src/improve",
        "src/exact", "src/api", "src/expt", "src/obs"}) {
    EXPECT_NE(arch.find(subsystem), std::string::npos)
        << "ARCHITECTURE.md does not mention " << subsystem;
  }
}

}  // namespace
}  // namespace setsched
