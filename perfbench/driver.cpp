// perfbench driver: generates one workload's instances from a seed, solves
// them one after another through SolverRegistry / Solver::solve (a closed
// loop with one client, threads=1), checks every output and prints the raw
// samples as one JSON object on stdout. perfbench/run.py turns the samples
// into the named metrics; see perfbench/README.md.
//
// Untraced run (--trace 0): phase timing and obs tracing stay off; only the
// wall time of each solve is taken.
// Traced run (--trace 1): each instance is solved once untraced and once with
// the phase ledger on (obs::set_timing_enabled), and the driver then times
// its own direct calls into the layers' public functions. Its spans are kept
// in memory and written to --spans at the end. obs::start_trace is never
// called: it records one event per search node.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/presets.h"
#include "api/registry.h"
#include "common/prng.h"
#include "core/bounds.h"
#include "core/schedule.h"
#include "exact/branch_bound.h"
#include "exact/config_bound.h"
#include "exact/lp_bound.h"
#include "obs/phase.h"
#include "unrelated/assignment_lp.h"
#include "unrelated/rounding.h"

namespace {

using namespace setsched;
using Clock = std::chrono::steady_clock;

/// Relative tolerance of the output checks (makespan recomputation, ratio to
/// the reference bound, bound-vs-makespan comparisons).
constexpr double kCheckTol = 1e-6;
/// T-search precision of the direct unrelated-layer calls; the same value
/// SolverContext::precision defaults to, so the calls match `rounding`.
constexpr double kSearchPrecision = 0.05;
/// Sampling rounds factor of round_fractional (RoundingOptions::c).
constexpr double kRoundingC = 3.0;
/// Set-up repetitions; setup_s reports their median.
constexpr std::size_t kSetupReps = 3;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string solver;
  std::string preset;
  std::string cross_check;  ///< traced: solver whose proven optimum must match
  std::string spans_path;   ///< traced: where the spans are written
  double budget_s = 0.0;    ///< SolverContext::time_limit_s; 0 = no budget
  std::size_t pool = 8;     ///< corpus size: preset seeds 1..pool
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool certified = false;  ///< the solver must report a gap >= 0
  bool config_root = false;
  bool self_test = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int k = 1; k < argc; ++k) {
    const std::string key = argv[k];
    if (key == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (key == "--certified") {
      a.certified = true;
      continue;
    }
    if (key == "--config-root") {
      a.config_root = true;
      continue;
    }
    if (k + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string value = argv[++k];
    if (key == "--solver") {
      a.solver = value;
    } else if (key == "--preset") {
      a.preset = value;
    } else if (key == "--cross-check") {
      a.cross_check = value;
    } else if (key == "--spans") {
      a.spans_path = value;
    } else if (key == "--budget-s") {
      a.budget_s = std::stod(value);
    } else if (key == "--pool") {
      a.pool = std::stoul(value);
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (!a.self_test && (a.solver.empty() || a.preset.empty() || a.pool == 0 ||
                       a.seed == 0)) {
    throw std::runtime_error(
        "need --solver, --preset and a positive --pool and --seed");
  }
  return a;
}

// --- JSON output ------------------------------------------------------------

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jlist(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (k > 0) out += ",";
    out += jnum(values[k]);
  }
  return out + "]";
}

// --- Output checks ------------------------------------------------------------

/// The first output check `result` violates, or nullopt. `ref_lb` is the
/// certified assignment-LP root bound of the instance.
std::optional<std::string> check_result(const Instance& inst,
                                        const ScheduleResult& result,
                                        double ref_lb, bool certified) {
  if (const auto error = schedule_error(inst, result.schedule)) {
    return "infeasible schedule: " + *error;
  }
  const double value = makespan(inst, result.schedule);
  if (std::abs(value - result.makespan) > kCheckTol * std::max(1.0, value)) {
    return "reported makespan " + jnum(result.makespan) +
           " != recomputed " + jnum(value);
  }
  const double gap = result.stats.gap;
  if (certified && gap < 0.0) return "no certified gap (gap " + jnum(gap) + ")";
  if (gap < 0.0 && result.stats.proven_optimal) {
    return "proven optimal without a certificate";
  }
  if (gap >= 0.0 && result.stats.proven_optimal != (gap == 0.0)) {
    return "proven_optimal does not match gap " + jnum(gap);
  }
  if (result.makespan < ref_lb * (1.0 - kCheckTol)) {
    return "makespan " + jnum(result.makespan) +
           " below the certified reference bound " + jnum(ref_lb);
  }
  return std::nullopt;
}

// --- Set-up -------------------------------------------------------------------

/// Certified assignment-LP root bound: the exact solvers' root relaxation,
/// built at the best-machine upper bound (valid because OPT <= hi).
double reference_bound(const Instance& inst) {
  const double lo = unrelated_lower_bound(inst);
  const double hi = unrelated_upper_bound(inst);
  exact::LpBounder bounder(inst, hi, lp::SimplexOptions{});
  if (!bounder.available()) return lo;
  return bounder.root_lower_bound(lo, hi, 0.0);
}

struct Prepared {
  std::uint64_t seed = 0;
  ProblemInput input;
  double ref_lb = 0.0;
};

struct Setup {
  std::vector<Prepared> pool;
  std::unique_ptr<Solver> solver;
  std::vector<double> setup_s;      ///< per repetition
  std::vector<double> generate_ms;  ///< per repetition, summed over the pool
};

/// Each workload runs a pinned corpus, preset seeds 1..pool; the run seed
/// shuffles the order in which the closed loop visits it. Disjoint instance
/// sets per run seed spread the end-to-end metrics by instance-to-instance
/// variation (22% on prove-small's p50 over five seeds), far beyond any
/// useful regression bound; with the corpus pinned, runs differ only by
/// noise and by which instances a run that ends mid-pass reaches last.
Setup set_up(const Args& args) {
  Setup out;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    double generate_ms = 0.0;
    std::vector<Prepared> pool;
    pool.reserve(args.pool);
    for (std::size_t k = 0; k < args.pool; ++k) {
      const std::uint64_t seed = k + 1;
      const auto g0 = Clock::now();
      ProblemInput input = generate_preset(args.preset, seed);
      generate_ms += ms_since(g0);
      const double ref_lb = reference_bound(input.instance);
      pool.push_back(Prepared{seed, std::move(input), ref_lb});
    }
    out.solver = SolverRegistry::global().create(args.solver);
    out.setup_s.push_back(ms_since(t0) / 1000.0);
    out.generate_ms.push_back(generate_ms);
    out.pool = std::move(pool);
  }
  Xoshiro256 rng(args.seed);
  shuffle(out.pool, rng);
  return out;
}

// --- Spans --------------------------------------------------------------------

struct Span {
  std::string name;
  std::size_t id = 0;
  std::size_t parent = 0;  ///< 0 = root
  std::uint64_t instance = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::vector<std::pair<std::string, double>> counts;
};

/// In-memory span log; written out once, after the measured loop.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  std::size_t begin(std::string name, std::size_t parent,
                    std::uint64_t instance) {
    spans_.push_back(Span{std::move(name), spans_.size() + 1, parent, instance,
                          now_us(), 0.0, {}});
    return spans_.back().id;
  }
  void end(std::size_t id) {
    Span& span = spans_[id - 1];
    span.dur_us = now_us() - span.start_us;
  }
  /// Attaches a count to a span (written into its args).
  void count(std::size_t id, std::string name, double value) {
    spans_[id - 1].counts.emplace_back(std::move(name), value);
  }
  /// Chrome trace-event format (chrome://tracing, Perfetto).
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    out << "{\"traceEvents\":[";
    for (std::size_t k = 0; k < spans_.size(); ++k) {
      const Span& s = spans_[k];
      out << (k > 0 ? ",\n" : "\n") << "{\"name\":" << jstr(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << jnum(s.start_us)
          << ",\"dur\":" << jnum(s.dur_us) << ",\"args\":{\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"instance\":" << s.instance;
      for (const auto& [name, value] : s.counts) {
        out << "," << jstr(name) << ":" << jnum(value);
      }
      out << "}}";
    }
    out << "\n]}\n";
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; also returns its own wall time in ms.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::size_t parent,
             std::uint64_t instance)
      : log_(log), id_(log.begin(std::move(name), parent, instance)),
        t0_(Clock::now()) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::size_t id() const { return id_; }
  [[nodiscard]] double elapsed_ms() const { return ms_since(t0_); }

 private:
  SpanLog& log_;
  std::size_t id_;
  Clock::time_point t0_;
};

// --- Solving ------------------------------------------------------------------

struct Sample {
  std::uint64_t seed = 0;
  double ms = 0.0;
  double makespan = 0.0;
  double ref_lb = 0.0;
  double gap = -1.0;
  bool proven = false;
  std::string error;  ///< empty = every check passed
  ScheduleResult result;
};

Sample solve_once(const Solver& solver, const Prepared& p, const Args& args) {
  Sample s;
  s.seed = p.seed;
  s.ref_lb = p.ref_lb;
  SolverContext context;
  context.seed = p.seed;
  if (args.budget_s > 0.0) context.time_limit_s = args.budget_s;
  const auto t0 = Clock::now();
  try {
    s.result = solver.solve(p.input, context);
    s.ms = ms_since(t0);
    if (const auto error =
            check_result(p.input.instance, s.result, p.ref_lb, args.certified)) {
      s.error = *error;
    }
  } catch (const std::exception& e) {
    s.ms = ms_since(t0);
    s.error = std::string("threw: ") + e.what();
  }
  // A budgeted solve may overrun by its coarse deadline checks, not by more.
  if (s.error.empty() && args.budget_s > 0.0 &&
      s.ms > 1500.0 * args.budget_s + 1000.0) {
    s.error = "timed out after " + jnum(s.ms) + " ms";
  }
  s.makespan = s.result.makespan;
  s.gap = s.result.stats.gap;
  s.proven = s.result.stats.proven_optimal;
  return s;
}

using Raw = std::map<std::string, double>;

void add_stats(Raw& raw, const SolverStats& st, const obs::PhaseTimes& phases) {
  raw["lp_solves"] += static_cast<double>(st.lp_solves);
  raw["lp_iterations"] += static_cast<double>(st.lp_iterations);
  raw["lp_dual_solves"] += static_cast<double>(st.lp_dual_solves);
  raw["nodes"] += static_cast<double>(st.nodes);
  raw["lp_bounds_used"] += static_cast<double>(st.lp_bounds_used);
  raw["fixed_vars"] += static_cast<double>(st.fixed_vars);
  raw["lp_audits_suspect"] += static_cast<double>(st.lp_audits_suspect);
  raw["lp_recoveries"] += static_cast<double>(st.lp_recoveries);
  raw["lp_oracle_fallbacks"] += static_cast<double>(st.lp_oracle_fallbacks);
  raw["cg_columns"] += static_cast<double>(st.cg_columns);
  raw["cg_pricing_rounds"] += static_cast<double>(st.cg_pricing_rounds);
  raw["cg_fallbacks"] += static_cast<double>(st.cg_fallbacks);
  for (std::size_t k = 0; k < obs::kPhaseCount; ++k) {
    raw["phase." + std::string(obs::phase_name(static_cast<obs::Phase>(k)))] +=
        phases.ms[k];
  }
}

/// Direct unrelated-layer calls: the T-search, one cold solve at the T it
/// found, and one sampling rounding of its fractional solution.
std::optional<std::string> time_unrelated(const Instance& inst,
                                          std::uint64_t seed, SpanLog& spans,
                                          std::size_t parent, Raw& raw) {
  std::optional<LpSearchResult> search;
  {
    const ScopedSpan span(spans, "unrelated.tsearch", parent, seed);
    search = search_assignment_lp(inst, kSearchPrecision);
    raw["tsearch_ms"] += span.elapsed_ms();
  }
  raw["tsearch_calls"] += 1.0;
  raw["tsearch_probes"] += static_cast<double>(search->lp_solves);
  {
    const ScopedSpan span(spans, "unrelated.cold_solve", parent, seed);
    const auto cold = solve_assignment_lp(inst, search->feasible_T);
    raw["cold_solve_ms"] += span.elapsed_ms();
    if (!cold) return "cold assignment LP infeasible at the T-search's T";
  }
  const double n = static_cast<double>(std::max<std::size_t>(inst.num_jobs(), 2));
  const auto rounds = static_cast<std::size_t>(
      std::max(1.0, std::ceil(kRoundingC * std::log2(n))));
  std::size_t fallback = 0;
  Schedule rounded;
  {
    const ScopedSpan span(spans, "unrelated.round", parent, seed);
    rounded = round_fractional(inst, search->fractional, rounds, seed, &fallback);
    raw["round_ms"] += span.elapsed_ms();
  }
  raw["round_fallback_jobs"] += static_cast<double>(fallback);
  raw["round_jobs"] += static_cast<double>(inst.num_jobs());
  if (const auto error = schedule_error(inst, rounded)) {
    return "round_fractional: " + *error;
  }
  return std::nullopt;
}

/// Direct exact-layer calls: the reference root bound again, then a pin
/// chain that pins `schedule` one job at a time on a fresh bounder and asks
/// feasible() at its makespan after each pin (every answer must be yes).
std::optional<std::string> time_exact(const Prepared& p,
                                      const ScheduleResult& solved,
                                      SpanLog& spans, std::size_t parent,
                                      Raw& raw) {
  const Instance& inst = p.input.instance;
  {
    const ScopedSpan span(spans, "exact.root_lp", parent, p.seed);
    const double bound = reference_bound(inst);
    raw["root_lp_ms"] += span.elapsed_ms();
    raw["root_lp_calls"] += 1.0;
    if (std::abs(bound - p.ref_lb) > kCheckTol * std::max(1.0, p.ref_lb)) {
      return "root bound " + jnum(bound) + " differs from set-up " +
             jnum(p.ref_lb);
    }
  }
  const ScopedSpan chain(spans, "exact.pin_chain", parent, p.seed);
  const double T = solved.makespan;
  exact::LpBounder bounder(inst, T, lp::SimplexOptions{});
  if (!bounder.available()) return std::nullopt;
  if (!bounder.feasible(T)) return "pin chain: unpinned relaxation rejected T";
  for (JobId j = 0; j < inst.num_jobs(); ++j) {
    bounder.pin(j, solved.schedule.assignment[j]);
    const std::size_t iters = bounder.iterations();
    const auto t0 = Clock::now();
    const bool ok = bounder.feasible(T);
    raw["pin_probe_ms"] += ms_since(t0);
    raw["pin_probes"] += 1.0;
    raw["pin_probe_iters"] += static_cast<double>(bounder.iterations() - iters);
    if (!ok) {
      return "pin chain: feasible() rejected the solver's own schedule after " +
             std::to_string(j + 1) + " pins";
    }
  }
  for (JobId j = inst.num_jobs(); j-- > 0;) bounder.unpin(j);
  return std::nullopt;
}

/// Direct colgen call: the configuration-LP root bisection, on the fine
/// root grid branch-and-price uses and with no deadline, between the
/// reference bound and the solver's makespan.
std::optional<std::string> time_config_root(const Prepared& p,
                                            const ScheduleResult& solved,
                                            SpanLog& spans, std::size_t parent,
                                            Raw& raw) {
  const Instance& inst = p.input.instance;
  const ScopedSpan span(spans, "colgen.config_root", parent, p.seed);
  exact::ConfigBoundOptions options;
  options.grid = ExactOptions{}.cg_root_grid;
  exact::ConfigLpBounder bounder(inst, solved.makespan, options);
  const double bound = bounder.available()
                           ? bounder.root_lower_bound(p.ref_lb, solved.makespan)
                           : p.ref_lb;
  raw["config_root_ms"] += span.elapsed_ms();
  raw["config_root_calls"] += 1.0;
  raw["config_root_probes"] += static_cast<double>(bounder.probes());
  raw["config_root_fallbacks"] += static_cast<double>(bounder.fallbacks());
  raw["config_root_gain_sum"] += bound / p.ref_lb;
  if (bound > solved.makespan * (1.0 + kCheckTol)) {
    return "config root bound " + jnum(bound) + " above a feasible makespan " +
           jnum(solved.makespan);
  }
  return std::nullopt;
}

/// Solves with `cross_check` and demands its proven optimum equal `solved`'s.
std::optional<std::string> cross_check(const Prepared& p,
                                       const ScheduleResult& solved,
                                       const Args& args, SpanLog& spans,
                                       std::size_t parent) {
  const ScopedSpan span(spans, "api.cross_check", parent, p.seed);
  const auto other = SolverRegistry::global().create(args.cross_check);
  const Sample s = solve_once(*other, p, args);
  if (!s.error.empty()) return args.cross_check + ": " + s.error;
  if (!solved.stats.proven_optimal) return "primary solve not proven";
  if (!s.proven) return args.cross_check + " did not prove optimality";
  if (std::abs(s.makespan - solved.makespan) >
      kCheckTol * std::max(1.0, s.makespan)) {
    return "optimum " + jnum(solved.makespan) + " != " + args.cross_check +
           " optimum " + jnum(s.makespan);
  }
  return std::nullopt;
}

std::string sample_json(const Sample& s) {
  return "{\"seed\":" + std::to_string(s.seed) + ",\"ms\":" + jnum(s.ms) +
         ",\"makespan\":" + jnum(s.makespan) + ",\"ref_lb\":" +
         jnum(s.ref_lb) + ",\"gap\":" + jnum(s.gap) +
         ",\"proven\":" + (s.proven ? "true" : "false") +
         ",\"error\":" + jstr(s.error) + "}";
}

double peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

int run(const Args& args) {
  obs::set_timing_enabled(false);
  Setup setup = set_up(args);
  const std::vector<Prepared>& pool = setup.pool;
  std::vector<Sample> samples;
  Raw raw;
  SpanLog spans;

  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(args.seconds));
  // An untraced run covers the whole corpus at least once, so every
  // instance enters the per-instance metrics whatever the order.
  for (std::size_t k = 0;
       Clock::now() < end || (!args.trace && k < pool.size()); ++k) {
    const Prepared& p = pool[k % pool.size()];
    if (!args.trace) {
      samples.push_back(solve_once(*setup.solver, p, args));
      continue;
    }
    const ScopedSpan instance(spans, "instance", 0, p.seed);
    Sample untraced;
    {
      const ScopedSpan span(spans, "api.solve_untraced", instance.id(), p.seed);
      untraced = solve_once(*setup.solver, p, args);
    }
    obs::set_timing_enabled(true);
    const obs::PhaseTimes before = obs::phase_snapshot();
    Sample traced;
    {
      const ScopedSpan span(spans, "api.solve", instance.id(), p.seed);
      traced = solve_once(*setup.solver, p, args);
      // Per-instance counts, so count claims can pair instances exactly.
      const SolverStats& st = traced.result.stats;
      spans.count(span.id(), "nodes", static_cast<double>(st.nodes));
      spans.count(span.id(), "lp_solves", static_cast<double>(st.lp_solves));
      spans.count(span.id(), "lp_iterations",
                  static_cast<double>(st.lp_iterations));
      spans.count(span.id(), "makespan", traced.makespan);
    }
    const obs::PhaseTimes phases = obs::phase_snapshot() - before;
    obs::set_timing_enabled(false);
    raw["solve_ms_untraced"] += untraced.ms;
    raw["solve_ms_traced"] += traced.ms;
    raw["solves"] += 1.0;
    add_stats(raw, traced.result.stats, phases);

    std::string error = !untraced.error.empty() ? untraced.error : traced.error;
    if (error.empty()) {
      try {
        std::optional<std::string> direct =
            time_unrelated(p.input.instance, p.seed, spans, instance.id(), raw);
        if (!direct) direct = time_exact(p, traced.result, spans, instance.id(), raw);
        if (!direct && args.config_root) {
          direct = time_config_root(p, traced.result, spans, instance.id(), raw);
        }
        if (!direct && !args.cross_check.empty()) {
          direct = cross_check(p, traced.result, args, spans, instance.id());
        }
        if (direct) error = *direct;
      } catch (const std::exception& e) {
        error = std::string("direct layer call threw: ") + e.what();
      }
    }
    untraced.error = error;
    samples.push_back(untraced);
  }
  if (args.trace && !args.spans_path.empty()) spans.write(args.spans_path);

  std::ostringstream out;
  out << "{\"setup_s\":" << jlist(setup.setup_s)
      << ",\"generate_ms\":" << jlist(setup.generate_ms)
      << ",\"pool\":" << pool.size() << ",\"peak_rss_kb\":" << jnum(peak_rss_kb())
      << ",\"samples\":[";
  for (std::size_t k = 0; k < samples.size(); ++k) {
    out << (k > 0 ? ",\n" : "\n") << sample_json(samples[k]);
  }
  out << "\n],\"raw\":{";
  bool first = true;
  for (const auto& [name, value] : raw) {
    out << (first ? "" : ",") << jstr(name) << ":" << jnum(value);
    first = false;
  }
  out << "}}\n";
  std::cout << out.str();
  return 0;
}

// --- Self-test ----------------------------------------------------------------

/// The output checks must reject deliberately broken results.
int self_test() {
  // unrelated-midsize has eligibility holes (eligibility 0.85).
  const ProblemInput input = generate_preset("unrelated-midsize", 1);
  const Instance& inst = input.instance;
  const double ref_lb = reference_bound(inst);
  const auto solver = SolverRegistry::global().create("greedy");
  const ScheduleResult good = solver->solve(input, SolverContext{});
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  };
  expect(!check_result(inst, good, ref_lb, false), "greedy schedule passes");

  // A job moved onto a machine it is not eligible on.
  std::optional<std::pair<JobId, MachineId>> hole;
  for (JobId j = 0; j < inst.num_jobs() && !hole; ++j) {
    for (MachineId i = 0; i < inst.num_machines() && !hole; ++i) {
      if (!inst.eligible(i, j)) hole = std::make_pair(j, i);
    }
  }
  expect(hole.has_value(), "instance has an ineligible pair");
  if (hole) {
    ScheduleResult broken = good;
    broken.schedule.assignment[hole->first] = hole->second;
    expect(check_result(inst, broken, ref_lb, false).has_value(),
           "ineligible machine rejected");
  }
  ScheduleResult lied = good;
  lied.makespan *= 0.5;
  expect(check_result(inst, lied, ref_lb, false).has_value(),
         "misreported makespan rejected");
  ScheduleResult unproven = good;
  unproven.stats.gap = 0.0;
  unproven.stats.proven_optimal = false;
  expect(check_result(inst, unproven, ref_lb, false).has_value(),
         "gap 0 without proof rejected");
  ScheduleResult uncertified = good;
  expect(check_result(inst, uncertified, ref_lb, true).has_value(),
         "missing certificate rejected on a certified workload");
  expect(check_result(inst, good, good.makespan * 2.0, false).has_value(),
         "ratio below 1 rejected");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    return args.self_test ? self_test() : run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
