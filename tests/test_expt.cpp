#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "api/presets.h"
#include "api/registry.h"
#include "common/check.h"
#include "core/counters.h"
#include "expt/aggregate.h"
#include "expt/harness.h"
#include "expt/plan.h"
#include "expt/record_io.h"
#include "obs/phase.h"

namespace setsched::expt {
namespace {

// --- plan parsing ----------------------------------------------------------

TEST(ExptPlan, ParsesKeyValueFile) {
  std::istringstream is(
      "# a tiny sweep\n"
      "presets = uniform-small, unrelated-small\n"
      "solvers = greedy, lpt   # trailing comment\n"
      "seeds = 2..4\n"
      "epsilon = 0.25\n"
      "precision = 0.1\n"
      "time_limit_s = 2.5\n"
      "inject = eta-flip,ftran-nan@0.01\n"
      "lp_audit = on\n"
      "threads = 3\n"
      "timing = off\n");
  const ExperimentPlan plan = parse_plan(is);
  EXPECT_EQ(plan.presets,
            (std::vector<std::string>{"uniform-small", "unrelated-small"}));
  EXPECT_EQ(plan.solvers, (std::vector<std::string>{"greedy", "lpt"}));
  EXPECT_EQ(plan.seed_begin, 2u);
  EXPECT_EQ(plan.seed_end, 4u);
  EXPECT_DOUBLE_EQ(plan.epsilon, 0.25);
  EXPECT_DOUBLE_EQ(plan.precision, 0.1);
  EXPECT_DOUBLE_EQ(plan.time_limit_s, 2.5);
  EXPECT_EQ(plan.inject, "eta-flip,ftran-nan@0.01");
  EXPECT_TRUE(plan.lp_audit);
  EXPECT_EQ(plan.threads, 3u);
  EXPECT_FALSE(plan.record_timing);
  EXPECT_EQ(plan.num_seeds(), 3u);
  EXPECT_EQ(plan.num_cells(), 2u * 3u * 2u);
}

TEST(ExptPlan, SolversAllExpandsToRegistry) {
  std::istringstream is(
      "presets = uniform-small\n"
      "solvers = all\n");
  const ExperimentPlan plan = parse_plan(is);
  EXPECT_EQ(plan.solvers, SolverRegistry::global().names());
}

TEST(ExptPlan, SeedRangeForms) {
  std::uint64_t begin = 0, end = 0;
  parse_seed_range("5", &begin, &end);
  EXPECT_EQ(begin, 1u);
  EXPECT_EQ(end, 5u);
  parse_seed_range(" 7 .. 9 ", &begin, &end);
  EXPECT_EQ(begin, 7u);
  EXPECT_EQ(end, 9u);
  EXPECT_THROW(parse_seed_range("9..7", &begin, &end), CheckError);
  EXPECT_THROW(parse_seed_range("0", &begin, &end), CheckError);
  EXPECT_THROW(parse_seed_range("abc", &begin, &end), CheckError);
  EXPECT_THROW(parse_seed_range("", &begin, &end), CheckError);
}

TEST(ExptPlan, RejectsMalformedFiles) {
  const auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return parse_plan(is);
  };
  EXPECT_THROW(parse("presets = uniform-small\nwat = 1\n"), CheckError);
  EXPECT_THROW(parse("presets uniform-small\n"), CheckError);
  EXPECT_THROW(parse("presets = no-such-preset\nsolvers = greedy\n"),
               CheckError);
  EXPECT_THROW(parse("presets = uniform-small\nsolvers = no-such-solver\n"),
               CheckError);
  EXPECT_THROW(parse("presets = uniform-small\n"), CheckError);  // no solvers
  EXPECT_THROW(parse("presets = uniform-small\nsolvers = greedy\n"
                     "timing = sometimes\n"),
               CheckError);
  EXPECT_THROW(parse("presets = uniform-small\nsolvers = greedy\n"
                     "epsilon = -1\n"),
               CheckError);
  // The LP engine and pricing selectors are gone: plan files that still
  // set them fail instead of silently running the default.
  EXPECT_THROW(parse("presets = uniform-small\nsolvers = greedy\n"
                     "lp = revised\n"),
               CheckError);
  EXPECT_THROW(parse("presets = uniform-small\nsolvers = greedy\n"
                     "lp_pricing = devex\n"),
               CheckError);
  // So is the per-cell watchdog: time_limit_s is a sweep's one clock (the
  // retired key is assembled so that its spelling stays out of the sources).
  EXPECT_THROW(parse("presets = uniform-small\nsolvers = greedy\n" +
                     std::string("cell_timeout") + "_s = 1\n"),
               CheckError);
  // A malformed fault-injection spec must fail at plan time, not mid-sweep.
  EXPECT_THROW(parse("presets = uniform-small\nsolvers = greedy\n"
                     "inject = warp-core-breach@0.01\n"),
               CheckError);
  EXPECT_THROW(parse("presets = uniform-small\nsolvers = greedy\n"
                     "inject = all@2.0\n"),
               CheckError);
  // A repeated name ran every cell twice under the same key.
  EXPECT_THROW(parse("presets = unrelated-tiny, unrelated-tiny\n"
                     "solvers = greedy\nseeds = 2\n"),
               CheckError);
  EXPECT_THROW(parse("presets = unrelated-tiny\n"
                     "solvers = greedy, greedy\nseeds = 2\n"),
               CheckError);
  // The full range wrapped num_seeds() to 0 and ran nothing; a larger cell
  // total escaped from the harness as std::length_error.
  EXPECT_THROW(parse("presets = unrelated-tiny\nsolvers = greedy\n"
                     "seeds = 0..18446744073709551615\n"),
               CheckError);
  EXPECT_THROW(parse("presets = unrelated-tiny, unrelated-small\n"
                     "solvers = greedy\n"
                     "seeds = 9223372036854775809..18446744073709551615\n"),
               CheckError);
  const ExperimentPlan widest =
      parse("presets = unrelated-tiny\nsolvers = greedy\n"
            "seeds = 1..4294967296\n");
  EXPECT_EQ(widest.num_cells(), ExperimentPlan::kMaxCells);
  EXPECT_THROW(parse("presets = unrelated-tiny\nsolvers = greedy\n"
                     "seeds = 1..4294967297\n"),
               CheckError);
}

// Every committed plan names only live presets, solvers and keys. This holds
// in builds without Python too, where the sweep checks that run the plans
// are not registered.
TEST(ExptPlan, CommittedPlansLoad) {
  const std::filesystem::path dir =
      std::filesystem::path(SETSCHED_SOURCE_DIR) / "bench" / "plans";
  std::size_t plans = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".plan") continue;
    SCOPED_TRACE(entry.path().string());
    const ExperimentPlan plan = load_plan(entry.path().string());
    EXPECT_GT(plan.num_cells(), 0u);
    ++plans;
  }
  EXPECT_GT(plans, 0u);
}

// The plan keys are also setsched_expt's flags: applying a key after a file
// overrides the file's value, and numeric values parse strictly.
TEST(ExptPlan, ApplyPlanKeyOverridesAndParsesStrictly) {
  std::istringstream is(
      "presets = uniform-small\n"
      "solvers = greedy\n"
      "epsilon = 0.25\n");
  ExperimentPlan plan = parse_plan(is);
  apply_plan_key(plan, "epsilon", "0.125");
  apply_plan_key(plan, "solvers", "all");
  apply_plan_key(plan, "timing", "off");
  EXPECT_DOUBLE_EQ(plan.epsilon, 0.125);
  EXPECT_EQ(plan.solvers, SolverRegistry::global().names());
  EXPECT_FALSE(plan.record_timing);
  EXPECT_THROW(apply_plan_key(plan, "no_such_key", "1"), CheckError);
  for (const char* bad : {"0.5abc", "-1", "0", "", "nan", "inf", " 1"}) {
    EXPECT_THROW(apply_plan_key(plan, "epsilon", bad), CheckError) << bad;
    EXPECT_THROW((void)parse_positive_double(bad, "x"), CheckError) << bad;
  }
  for (const char* bad : {"-1", "3abc", "", "1.5"}) {
    EXPECT_THROW(apply_plan_key(plan, "threads", bad), CheckError) << bad;
    EXPECT_THROW((void)parse_u64(bad, "seed"), CheckError) << bad;
  }
  EXPECT_DOUBLE_EQ(parse_positive_double("2.5", "x"), 2.5);
  EXPECT_EQ(parse_u64("18446744073709551615", "seed"), UINT64_MAX);
}

/// Applies one key to an otherwise valid plan, then validates it: the path
/// both plan files and setsched_expt's flags take.
void apply_and_validate(std::string_view key, std::string_view value) {
  ExperimentPlan plan;
  plan.presets = {"uniform-small"};
  plan.solvers = {"greedy"};
  apply_plan_key(plan, key, value);
  plan.validate();
}

// Every numeric plan key rejects negative, trailing-junk, non-finite and
// out-of-range values with CheckError, and accepts its defined extremes; the
// lp_audit switch accepts exactly `on` and `off`.
TEST(ExptPlan, NumericKeysRejectBadValuesAndAcceptExtremes) {
  struct KeyCase {
    const char* key;
    std::vector<const char*> bad;
    std::vector<const char*> extremes;
  };
  const std::vector<const char*> bad_real = {
      "-1", "-0.5", "0", "0.5abc", "nan", "inf", "-inf", "1e309", ""};
  const std::vector<const char*> extreme_real = {"1e-300", "1e300"};
  const std::vector<KeyCase> cases = {
      {"seeds",
       {"-1", "4abc", "nan", "inf", "0", "1.5", "5..3", "-1..3",
        "18446744073709551616", "0..18446744073709551615", "1..4294967297"},
       {"1", "1..4294967296",
        "18446744073709551615..18446744073709551615"}},
      {"epsilon", bad_real, extreme_real},
      {"precision", bad_real, extreme_real},
      {"time_limit_s", bad_real, extreme_real},
      // run_experiment builds a private pool of `threads` OS threads, so the
      // key is capped at kMaxThreads; only the plan is built here.
      {"threads",
       {"-1", "2abc", "nan", "inf", "1.5", "1025", "18446744073709551615",
        "18446744073709551616", ""},
       {"0", "1", "1024"}},
      {"lp_audit",
       {"0", "1", "16", "-1", "nan", "true", "yes", "ON", "on1", "onoff", ""},
       {"on", "off"}},
  };
  for (const KeyCase& c : cases) {
    for (const char* value : c.bad) {
      EXPECT_THROW(apply_and_validate(c.key, value), CheckError)
          << c.key << " = '" << value << "'";
    }
    for (const char* value : c.extremes) {
      EXPECT_NO_THROW(apply_and_validate(c.key, value))
          << c.key << " = '" << value << "'";
    }
  }
  // The retired integer audit cadence is an unknown key now (its name is
  // assembled so that the retired spelling stays out of the sources).
  const std::string retired = std::string("lp_audit") + "_interval";
  EXPECT_THROW(apply_and_validate(retired, "1"), CheckError);
}

TEST(ExptPlan, CellKeyOrderIsPresetSeedSolver) {
  ExperimentPlan plan;
  plan.presets = {"uniform-small", "unrelated-small"};
  plan.solvers = {"greedy", "lpt", "best-machine"};
  plan.seed_begin = 3;
  plan.seed_end = 4;
  ASSERT_EQ(plan.num_cells(), 12u);
  std::size_t cell = 0;
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::uint64_t s = 3; s <= 4; ++s) {
      for (std::size_t v = 0; v < 3; ++v, ++cell) {
        const CellKey key = cell_key(plan, cell);
        EXPECT_EQ(key.preset, p);
        EXPECT_EQ(key.seed, s);
        EXPECT_EQ(key.solver, v);
        EXPECT_EQ(key.point, p * 2 + (s - 3));
      }
    }
  }
}

TEST(ExptPlan, CellSeedDependsOnEveryComponent) {
  const std::uint64_t base = cell_seed("uniform-small", 1, "greedy");
  EXPECT_EQ(base, cell_seed("uniform-small", 1, "greedy"));  // deterministic
  EXPECT_NE(base, cell_seed("unrelated-small", 1, "greedy"));
  EXPECT_NE(base, cell_seed("uniform-small", 2, "greedy"));
  EXPECT_NE(base, cell_seed("uniform-small", 1, "lpt"));
}

// --- record IO -------------------------------------------------------------

RunRecord sample_record() {
  RunRecord r;
  r.solver = "greedy";
  r.preset = "uniform-small";
  r.seed = 7;
  r.cell_seed = 123456789012345ULL;
  r.num_jobs = 20;
  r.num_machines = 4;
  r.num_classes = 4;
  r.status = RunStatus::kOk;
  r.makespan = 58.32713820362053;
  r.lower_bound = 21.702411671642682;
  r.ratio = r.makespan / r.lower_bound;
  r.setups = 9;
  r.time_ms = 0.125;
  r.phase_ms[obs::Phase::kLpSolve] = 0.0625;
  r.phase_ms[obs::Phase::kLpPricing] = 0.03125;
  r.phase_ms[obs::Phase::kProve] = 0.015625;
  r.lp_solves = 7;
  r.lp_iterations = 431;
  r.lp_dual_solves = 4;
  r.fixed_vars = 11;
  r.lp_audits_suspect = 3;
  r.lp_recoveries = 2;
  r.lp_oracle_fallbacks = 1;
  r.cg_columns = 13;
  r.cg_pricing_rounds = 17;
  r.cg_fallbacks = 6;
  r.nodes = 1234;
  r.lp_bounds_used = 5;
  r.lp_factorizations = 8;
  r.lp_lu_nnz = 977;
  r.proven_optimal = true;
  r.gap = 0.0;
  r.epsilon = 0.5;
  r.precision = 0.05;
  r.time_limit_s = 10.0;
  return r;
}

// The wire key names are a file format: a line written by the 32-key writer
// that predates the counter table, extended by the two LP factorization
// counters appended to the table since, must stay byte for byte what today's
// writer emits. Spelled out here, not taken from the table, so renaming a
// counter field cannot silently rename its key. The error text carries every
// JSON escape the writer emits.
TEST(ExptRecordIo, PinnedLineKeepsItsWireNames) {
  const std::string line =
      R"({"solver":"branch-and-price","preset":"unrelated-small","seed":3,)"
      R"("cell_seed":9876543210123,"n":14,"m":3,"classes":5,)"
      R"("status":"error","makespan":41.5,"lower_bound":40.25,)"
      R"("ratio":1.031055900621118,)"
      R"("setups":8,"time_ms":2.5,"phase_ms":{"lp_solve":1.25},)"
      R"("lp_solves":21,"lp_iterations":305,"lp_dual_solves":19,)"
      R"("fixed_vars":4,"lp_audits_suspect":9,"lp_recoveries":8,)"
      R"("lp_oracle_fallbacks":1,"cg_columns":77,"cg_pricing_rounds":12,)"
      R"("cg_fallbacks":2,"nodes":296,"lp_bounds_used":53,)"
      R"("lp_factorizations":6,"lp_lu_nnz":321,)"
      R"("proven_optimal":false,"gap":0.03125,"epsilon":0.25,)"
      R"("precision":0.01,"time_limit_s":2,)"
      R"("error":"quote \" backslash \\ newline \n tab \t ctrl \u0001 end"})"
      "\n";
  RunRecord r;
  r.solver = "branch-and-price";
  r.preset = "unrelated-small";
  r.seed = 3;
  r.cell_seed = 9876543210123ULL;
  r.num_jobs = 14;
  r.num_machines = 3;
  r.num_classes = 5;
  r.status = RunStatus::kError;
  r.makespan = 41.5;
  r.lower_bound = 40.25;
  r.ratio = r.makespan / r.lower_bound;
  r.setups = 8;
  r.time_ms = 2.5;
  r.phase_ms[obs::Phase::kLpSolve] = 1.25;
  r.lp_solves = 21;
  r.lp_iterations = 305;
  r.lp_dual_solves = 19;
  r.fixed_vars = 4;
  r.lp_audits_suspect = 9;
  r.lp_recoveries = 8;
  r.lp_oracle_fallbacks = 1;
  r.cg_columns = 77;
  r.cg_pricing_rounds = 12;
  r.cg_fallbacks = 2;
  r.nodes = 296;
  r.lp_bounds_used = 53;
  r.lp_factorizations = 6;
  r.lp_lu_nnz = 321;
  r.proven_optimal = false;
  r.gap = 0.03125;
  r.epsilon = 0.25;
  r.precision = 0.01;
  r.time_limit_s = 2.0;
  r.error = "quote \" backslash \\ newline \n tab \t ctrl \x01 end";

  std::ostringstream os;
  write_jsonl(os, r);
  EXPECT_EQ(os.str(), line);
}

TEST(ExptRecordIo, CsvHeaderAndQuoting) {
  RunRecord r = sample_record();
  r.status = RunStatus::kInvalid;
  r.error = "bad, \"quoted\" value";
  std::ostringstream os;
  write_csv(os, std::vector<RunRecord>{r});
  const std::string out = os.str();
  EXPECT_EQ(out.substr(0, out.find('\n')),
            "solver,preset,seed,cell_seed,n,m,classes,status,makespan,"
            "lower_bound,ratio,setups,time_ms,phase_ms,lp_solves,"
            "lp_iterations,lp_dual_solves,fixed_vars,lp_audits_suspect,"
            "lp_recoveries,lp_oracle_fallbacks,cg_columns,cg_pricing_rounds,"
            "cg_fallbacks,nodes,lp_bounds_used,lp_factorizations,lp_lu_nnz,"
            "proven_optimal,gap,epsilon,precision,time_limit_s,error");
  EXPECT_NE(out.find("\"bad, \"\"quoted\"\" value\""), std::string::npos);
  // Compact semicolon-separated breakdown, never CSV-quoted.
  EXPECT_NE(out.find("lp_solve:0.0625;lp_pricing:0.03125;prove:0.015625"),
            std::string::npos);
}

// --- harness ---------------------------------------------------------------

ExperimentPlan small_plan(std::size_t threads) {
  ExperimentPlan plan;
  plan.presets = {"uniform-small", "unrelated-small"};
  plan.solvers = {"greedy", "lpt", "local-search"};
  plan.seed_begin = 1;
  plan.seed_end = 2;
  plan.threads = threads;
  plan.record_timing = false;  // the one thread-count-dependent field
  return plan;
}

TEST(ExptHarness, SortedJsonlIsByteIdenticalAcrossThreadCounts) {
  const std::vector<RunRecord> sequential = run_experiment(small_plan(1));
  const std::vector<RunRecord> sharded = run_experiment(small_plan(4));
  EXPECT_EQ(sequential, sharded);

  const auto to_sorted_jsonl = [](const std::vector<RunRecord>& records) {
    std::stringstream stream;
    write_jsonl(stream, records);
    std::vector<std::string> lines;
    for (std::string line; std::getline(stream, line);) lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string& line : lines) out += line + "\n";
    return out;
  };
  EXPECT_EQ(to_sorted_jsonl(sequential), to_sorted_jsonl(sharded));
}

TEST(ExptHarness, RecordsCarryCellKeysStatusesAndBounds) {
  const ExperimentPlan plan = small_plan(2);
  const std::vector<RunRecord> records = run_experiment(plan);
  ASSERT_EQ(records.size(), plan.num_cells());
  for (std::size_t c = 0; c < records.size(); ++c) {
    const CellKey key = cell_key(plan, c);
    const RunRecord& r = records[c];
    EXPECT_EQ(r.preset, plan.presets[key.preset]);
    EXPECT_EQ(r.solver, plan.solvers[key.solver]);
    EXPECT_EQ(r.seed, key.seed);
    EXPECT_EQ(r.cell_seed, cell_seed(r.preset, r.seed, r.solver));
    EXPECT_GT(r.num_jobs, 0u);
    EXPECT_GT(r.num_machines, 0u);
    EXPECT_GT(r.lower_bound, 0.0);
    EXPECT_DOUBLE_EQ(r.time_ms, 0.0);
    if (r.solver == "lpt") {
      // The uniform-only solver must be skipped on the unrelated preset.
      EXPECT_EQ(r.status, r.preset == "uniform-small" ? RunStatus::kOk
                                                      : RunStatus::kSkipped);
    } else {
      EXPECT_EQ(r.status, RunStatus::kOk);
    }
    if (r.status == RunStatus::kOk) {
      // The lower bound is genuine, so validated makespans sit above it.
      EXPECT_GE(r.ratio, 1.0 - 1e-9);
      EXPECT_NEAR(r.ratio, r.makespan / r.lower_bound, 1e-12);
      // LP-free solvers report zero solver-level LP effort and issue no
      // optimality certificate.
      EXPECT_EQ(r.lp_solves, 0u);
      EXPECT_EQ(r.lp_iterations, 0u);
      EXPECT_EQ(r.nodes, 0u);
      EXPECT_EQ(r.lp_bounds_used, 0u);
      EXPECT_FALSE(r.proven_optimal);
      EXPECT_DOUBLE_EQ(r.gap, -1.0);
    } else {
      EXPECT_DOUBLE_EQ(r.makespan, 0.0);
      EXPECT_TRUE(r.error.empty());
    }
  }
}

// A time limit far beyond the clock's range is no deadline: converting
// 1e300 s to clock ticks would overflow into the past, so `exact` would
// abort before its first node with the incumbent 206, unproven. Clamped by
// deadline_in, the cell proves 197 in 18,189 nodes.
TEST(ExptHarness, HugeTimeLimitIsNoDeadline) {
  ExperimentPlan plan;
  plan.presets = {"unrelated-small"};
  plan.solvers = {"exact"};
  plan.seed_begin = 1;
  plan.seed_end = 1;
  plan.threads = 1;
  plan.record_timing = false;
  plan.time_limit_s = 1e300;
  const std::vector<RunRecord> huge = run_experiment(plan);
  ASSERT_EQ(huge.size(), 1u);
  EXPECT_EQ(huge[0].status, RunStatus::kOk) << huge[0].error;
  EXPECT_TRUE(huge[0].proven_optimal);
  EXPECT_DOUBLE_EQ(huge[0].makespan, 197.0);
  EXPECT_EQ(huge[0].nodes, 18'189u);
}

// The mid-size ground-truth scenario: an exact-included sweep on the
// unrelated-midsize preset must report a per-run gap for the search solvers
// and may never mislabel a budget-exhausted run as proven-optimal.
TEST(ExptHarness, MidsizeExactSweepCertificatesAreCoherent) {
  ExperimentPlan plan;
  plan.presets = {"unrelated-midsize"};
  plan.solvers = {"exact", "exact-dive", "greedy"};
  plan.seed_begin = 1;
  plan.seed_end = 2;
  plan.time_limit_s = 1.0;  // hopeless for proving n=40: must abort honestly
  plan.threads = 1;
  plan.record_timing = false;
  const std::vector<RunRecord> records = run_experiment(plan);
  ASSERT_EQ(records.size(), plan.num_cells());
  for (const RunRecord& r : records) {
    ASSERT_EQ(r.status, RunStatus::kOk) << r.solver << ": " << r.error;
    if (r.solver == "greedy") {
      EXPECT_FALSE(r.proven_optimal);
      EXPECT_DOUBLE_EQ(r.gap, -1.0);
      continue;
    }
    // Search solvers always carry a certificate...
    EXPECT_GE(r.gap, 0.0) << r.solver;
    EXPECT_GT(r.nodes, 0u) << r.solver;
    // ...and a proven claim coincides with a closed gap: a budget abort
    // must surface as proven_optimal == false with gap > 0.
    if (r.proven_optimal) {
      EXPECT_DOUBLE_EQ(r.gap, 0.0) << r.solver;
    } else {
      EXPECT_GT(r.gap, 0.0) << r.solver;
    }
  }
}

// Phase-ledger attribution across cells sharing a thread (the regression the
// thread-local snapshot delta protects against): an accumulator only grows
// over a thread's lifetime, so a delta bug would make later cells on the same
// thread report phase totals covering earlier cells too. Solver-tier phases
// are disjoint and lie strictly inside the timed solve, so each record must
// satisfy phase_total <= its own time_ms (plus clock-granularity slack).
// threads=1 exercises the inline path (every cell reuses the calling
// thread's accumulator); threads=2 exercises pool-worker reuse.
TEST(ExptHarness, PhaseDeltasStayWithinOwnCellTime) {
  for (const std::size_t threads : {1u, 2u}) {
    ExperimentPlan plan;
    plan.presets = {"unrelated-small"};
    plan.solvers = {"exact-dive"};
    plan.seed_begin = 1;
    plan.seed_end = 4;
    plan.time_limit_s = 0.5;
    plan.threads = threads;
    plan.record_timing = true;
    const std::vector<RunRecord> records = run_experiment(plan);
    ASSERT_EQ(records.size(), 4u);
    for (const RunRecord& r : records) {
      ASSERT_EQ(r.status, RunStatus::kOk) << r.error;
      const double solver_tier = r.phase_ms[obs::Phase::kRootBound] +
                                 r.phase_ms[obs::Phase::kDive] +
                                 r.phase_ms[obs::Phase::kProve];
      EXPECT_LE(solver_tier, r.time_ms * 1.05 + 5.0)
          << "threads=" << threads << " seed=" << r.seed
          << ": phase total exceeds the cell's own wall time";
    }
  }
}

// --- validated solve ---------------------------------------------------------

/// A solver whose result (or failure) the test supplies, for the branches
/// of validated_solve that no registered solver reaches.
class FakeSolver final : public Solver {
 public:
  explicit FakeSolver(std::function<ScheduleResult(const ProblemInput&)> result)
      : result_(std::move(result)) {}
  [[nodiscard]] std::string name() const override { return "fake"; }
  [[nodiscard]] ScheduleResult solve(const ProblemInput& input,
                                     const SolverContext&) const override {
    return result_(input);
  }

 private:
  std::function<ScheduleResult(const ProblemInput&)> result_;
};

ScheduleResult greedy_result(const ProblemInput& input) {
  return SolverRegistry::global().create("greedy")->solve(input, {});
}

RunRecord run_fake(const FakeSolver& solver) {
  const ProblemInput input = generate_preset("unrelated-small", 1);
  return validated_solve(solver, input, SolverContext{}, 10.0,
                         /*record_timing=*/false, RunRecord{});
}

TEST(ExptValidatedSolve, InfeasibleScheduleIsInvalid) {
  const RunRecord r = run_fake(FakeSolver([](const ProblemInput& input) {
    ScheduleResult result = greedy_result(input);
    result.schedule = Schedule::empty(input.instance.num_jobs());
    return result;
  }));
  EXPECT_EQ(r.status, RunStatus::kInvalid);
  EXPECT_EQ(r.error.rfind("invalid schedule: ", 0), 0u) << r.error;
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
}

TEST(ExptValidatedSolve, WrongMakespanIsInvalid) {
  const RunRecord r = run_fake(FakeSolver([](const ProblemInput& input) {
    ScheduleResult result = greedy_result(input);
    result.makespan += 1.0;
    return result;
  }));
  EXPECT_EQ(r.status, RunStatus::kInvalid);
  EXPECT_EQ(r.error, "reported makespan disagrees with schedule");
}

TEST(ExptValidatedSolve, ThrowingSolverIsError) {
  const RunRecord r =
      run_fake(FakeSolver([](const ProblemInput&) -> ScheduleResult {
        throw std::runtime_error("solver blew up");
      }));
  EXPECT_EQ(r.status, RunStatus::kError);
  EXPECT_EQ(r.error, "solver blew up");
}

// --- aggregation -----------------------------------------------------------

RunRecord bucket_record(const std::string& solver, const std::string& preset,
                        RunStatus status, double ratio, double time_ms,
                        std::size_t lp_solves = 0,
                        std::size_t lp_iterations = 0,
                        bool proven_optimal = false, double gap = -1.0) {
  RunRecord r;
  r.solver = solver;
  r.preset = preset;
  r.status = status;
  r.ratio = ratio;
  r.time_ms = time_ms;
  r.lp_solves = lp_solves;
  r.lp_iterations = lp_iterations;
  r.proven_optimal = proven_optimal;
  r.gap = gap;
  return r;
}

RunRecord with_phases(RunRecord r, double lp_solve_ms, double pricing_ms) {
  r.phase_ms[obs::Phase::kLpSolve] = lp_solve_ms;
  r.phase_ms[obs::Phase::kLpPricing] = pricing_ms;
  return r;
}

TEST(ExptAggregate, MatchesHandComputedFixture) {
  const std::vector<RunRecord> records{
      // zeta/p1: ratios {1.0, 1.5, 2.0}, times {10, 20, 30}, lp solves
      // {8, 6, 10} and iterations {400, 200, 600}, 1 skip, 1 error.
      // Certificates: one proven optimum (gap 0), one budget-exhausted run
      // (gap 0.25), one heuristic cell (no certificate, gap -1).
      with_phases(bucket_record("zeta", "p1", RunStatus::kOk, 1.5, 20.0, 8,
                                400, true, 0.0),
                  10.0, 4.0),
      with_phases(bucket_record("zeta", "p1", RunStatus::kOk, 1.0, 10.0, 6,
                                200, false, 0.25),
                  2.0, 2.0),
      with_phases(bucket_record("zeta", "p1", RunStatus::kOk, 2.0, 30.0, 10,
                                600),
                  15.0, 6.0),
      bucket_record("zeta", "p1", RunStatus::kSkipped, 0.0, 0.0),
      bucket_record("zeta", "p1", RunStatus::kError, 0.0, 0.0),
      // alpha/p2: every cell failed -> zeroed statistics, not UB or a throw.
      bucket_record("alpha", "p2", RunStatus::kInvalid, 0.0, 0.0),
      // alpha/p1: single ok cell -> every statistic equals that cell.
      bucket_record("alpha", "p1", RunStatus::kOk, 1.25, 5.0),
  };
  const std::vector<AggregateSummary> summaries = aggregate(records);
  ASSERT_EQ(summaries.size(), 3u);

  // Sorted by (solver, preset): alpha/p1, alpha/p2, zeta/p1.
  EXPECT_EQ(summaries[0].solver, "alpha");
  EXPECT_EQ(summaries[0].preset, "p1");
  EXPECT_EQ(summaries[0].cells, 1u);
  EXPECT_EQ(summaries[0].ok, 1u);
  EXPECT_DOUBLE_EQ(summaries[0].ratio_mean, 1.25);
  EXPECT_DOUBLE_EQ(summaries[0].ratio_max, 1.25);
  EXPECT_DOUBLE_EQ(summaries[0].time_p50_ms, 5.0);
  EXPECT_DOUBLE_EQ(summaries[0].time_p95_ms, 5.0);

  EXPECT_EQ(summaries[1].solver, "alpha");
  EXPECT_EQ(summaries[1].preset, "p2");
  EXPECT_EQ(summaries[1].cells, 1u);
  EXPECT_EQ(summaries[1].ok, 0u);
  EXPECT_EQ(summaries[1].failed, 1u);
  EXPECT_DOUBLE_EQ(summaries[1].ratio_mean, 0.0);
  EXPECT_DOUBLE_EQ(summaries[1].ratio_max, 0.0);
  EXPECT_DOUBLE_EQ(summaries[1].time_p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(summaries[1].time_p95_ms, 0.0);

  EXPECT_EQ(summaries[2].solver, "zeta");
  EXPECT_EQ(summaries[2].cells, 5u);
  EXPECT_EQ(summaries[2].ok, 3u);
  EXPECT_EQ(summaries[2].skipped, 1u);
  EXPECT_EQ(summaries[2].failed, 1u);
  EXPECT_DOUBLE_EQ(summaries[2].ratio_mean, 1.5);
  EXPECT_DOUBLE_EQ(summaries[2].ratio_max, 2.0);
  EXPECT_DOUBLE_EQ(summaries[2].time_p50_ms, 20.0);
  // percentile([10,20,30], 0.95): position 1.9 -> 20 * 0.1 + 30 * 0.9 = 29.
  EXPECT_NEAR(summaries[2].time_p95_ms, 29.0, 1e-12);
  EXPECT_DOUBLE_EQ(summaries[2].counter_mean[counter::lp_solves], 8.0);
  EXPECT_DOUBLE_EQ(summaries[2].counter_mean[counter::lp_iterations], 400.0);
  EXPECT_DOUBLE_EQ(summaries[0].counter_mean[counter::lp_solves], 0.0);
  // Certificates: proven counts solver-certified optima only; gap_mean
  // averages the certified cells ({0.0, 0.25}) and ignores the -1 sentinel.
  EXPECT_EQ(summaries[2].proven, 1u);
  EXPECT_EQ(summaries[2].certified, 2u);
  EXPECT_DOUBLE_EQ(summaries[2].gap_mean, 0.125);
  EXPECT_EQ(summaries[0].proven, 0u);
  EXPECT_EQ(summaries[0].certified, 0u);
  EXPECT_DOUBLE_EQ(summaries[0].gap_mean, 0.0);
  // Phase shares: lp% over zeta/p1 is mean{10/20, 2/10, 15/30} = 40%,
  // pricing% is mean{4/20, 2/10, 6/30} = 20%. alpha/p1 carries no phase
  // accounting -> 0.
  EXPECT_DOUBLE_EQ(summaries[2].lp_pct_mean, 40.0);
  EXPECT_DOUBLE_EQ(summaries[2].pricing_pct_mean, 20.0);
  EXPECT_DOUBLE_EQ(summaries[0].lp_pct_mean, 0.0);
}

TEST(ExptAggregate, GuardCounterMeansAverageOkCells) {
  RunRecord a = bucket_record("s", "p", RunStatus::kOk, 1.0, 1.0);
  a.lp_audits_suspect = 2;
  a.lp_recoveries = 2;
  a.lp_oracle_fallbacks = 0;
  RunRecord b = bucket_record("s", "p", RunStatus::kOk, 1.0, 1.0);
  b.lp_audits_suspect = 4;
  b.lp_recoveries = 3;
  b.lp_oracle_fallbacks = 1;
  // Failed cells contribute nothing, however large their counters.
  RunRecord c = bucket_record("s", "p", RunStatus::kError, 0.0, 0.0);
  c.lp_audits_suspect = 100;
  const std::vector<AggregateSummary> summaries =
      aggregate(std::vector<RunRecord>{a, b, c});
  ASSERT_EQ(summaries.size(), 1u);
  const auto& means = summaries[0].counter_mean;
  EXPECT_DOUBLE_EQ(means[counter::lp_audits_suspect], 3.0);
  EXPECT_DOUBLE_EQ(means[counter::lp_recoveries], 2.5);
  EXPECT_DOUBLE_EQ(means[counter::lp_oracle_fallbacks], 0.5);
}

TEST(ExptAggregate, SummaryTableHasOneRowPerBucket) {
  const std::vector<RunRecord> records{
      bucket_record("a", "p", RunStatus::kOk, 1.0, 1.0),
      bucket_record("b", "p", RunStatus::kOk, 1.0, 1.0),
  };
  const Table table = summary_table(aggregate(records));
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(ExptAggregate, BenchJsonContainsPlanCountsAndSummaries) {
  ExperimentPlan plan;
  plan.presets = {"uniform-small"};
  plan.solvers = {"greedy", "lpt"};
  plan.seed_begin = 1;
  plan.seed_end = 3;
  // Not a valid fault spec; the report writer only echoes the string, and
  // must escape it like every other JSON string.
  plan.inject = "quote\" tab\t";
  const std::vector<RunRecord> records{
      bucket_record("greedy", "uniform-small", RunStatus::kOk, 1.5, 2.0),
      bucket_record("lpt", "uniform-small", RunStatus::kSkipped, 0.0, 0.0),
  };
  std::ostringstream os;
  write_bench_json(os, plan, aggregate(records));
  const std::string out = os.str();
  EXPECT_NE(out.find("\"bench\": \"expt\""), std::string::npos);
  EXPECT_NE(out.find("\"presets\": [\"uniform-small\"]"), std::string::npos);
  EXPECT_NE(out.find("\"solvers\": [\"greedy\",\"lpt\"]"), std::string::npos);
  EXPECT_NE(out.find("\"cells\": 2"), std::string::npos);
  EXPECT_NE(out.find("\"ok\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"skipped\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"ratio_mean\": 1.5"), std::string::npos);
  // The plan echoes no LP engine or pricing: there is one configuration.
  EXPECT_EQ(out.find("\"lp\": \""), std::string::npos);
  EXPECT_EQ(out.find("\"lp_pricing\": \""), std::string::npos);
  EXPECT_NE(out.find("\"proven\""), std::string::npos);
  EXPECT_NE(out.find("\"certified\""), std::string::npos);
  EXPECT_NE(out.find("\"gap_mean\""), std::string::npos);
  EXPECT_NE(out.find("\"lp_pct_mean\""), std::string::npos);
  EXPECT_NE(out.find("\"pricing_pct_mean\""), std::string::npos);
  // Nor a per-cell watchdog (no `timeout` count, no plan echo of it):
  // time_limit_s is the one clock.
  EXPECT_EQ(out.find("\"timeout\""), std::string::npos);
  EXPECT_EQ(out.find("timeout"), std::string::npos);
  EXPECT_NE(out.find(R"("inject": "quote\" tab\t")"), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"lp_audit\": false"), std::string::npos);
  for (const CounterInfo& c : kCounters) {
    const std::string key = std::string(c.name) + "_mean\":";
    EXPECT_NE(out.find(key), std::string::npos) << c.name;
  }
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
}

}  // namespace
}  // namespace setsched::expt
