#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "api/solver.h"

namespace setsched::expt {

/// Declarative description of a sweep: the cross product
///   presets × [seed_begin, seed_end] × solvers
/// plus the solver-context knobs shared by every cell. Cells are indexed in
/// that nesting order (preset outermost, solver innermost), which fixes the
/// output order of the harness independently of thread count.
struct ExperimentPlan {
  std::vector<std::string> presets;
  std::vector<std::string> solvers;
  std::uint64_t seed_begin = 1;
  std::uint64_t seed_end = 1;  ///< inclusive

  // Context knobs echoed into every RunRecord, defaulting to SolverContext's.
  double epsilon = SolverContext{}.epsilon;
  double precision = SolverContext{}.precision;
  double time_limit_s = SolverContext{}.time_limit_s;

  /// 0 = shared default_pool(), 1 = sequential, N = private pool of N
  /// (at most kMaxThreads).
  std::size_t threads = 0;
  /// Off zeroes time_ms in every record, making JSONL output byte-identical
  /// across runs and thread counts.
  bool record_timing = true;
  /// Deterministic LP fault-injection spec (plan key `inject`, CLI --inject):
  /// `kind[,kind...]@rate` or `all@rate` with the kinds of lp/fault.h, e.g.
  /// "eta-flip,ftran-nan@0.01". Empty = no injection. Each cell derives its
  /// own injection stream from its cell_seed, so sweeps are reproducible
  /// cell-by-cell regardless of scheduling.
  std::string inject;
  /// Residual audit of every LP solve of the approximation pipelines (plan
  /// key `lp_audit`, on/off). Exact bound probes audit always.
  bool lp_audit = SolverContext{}.lp_audit;

  [[nodiscard]] std::size_t num_seeds() const noexcept {
    return static_cast<std::size_t>(seed_end - seed_begin + 1);
  }
  [[nodiscard]] std::size_t num_points() const noexcept {
    return presets.size() * num_seeds();
  }
  [[nodiscard]] std::size_t num_cells() const noexcept {
    return num_points() * solvers.size();
  }

  /// Throws CheckError unless: presets and solvers are non-empty, every
  /// preset/solver name is known (preset_names() / SolverRegistry) and
  /// appears once, the seed range is non-empty, the sweep has at most
  /// kMaxCells cells, threads is at most kMaxThreads, and the knobs are
  /// positive.
  void validate() const;

  /// Largest sweep validate() accepts: cell indices stay far inside size_t,
  /// and no sweep this size could run anyway.
  static constexpr std::size_t kMaxCells = std::size_t{1} << 32;
  /// Largest private pool validate() accepts: run_experiment starts that
  /// many OS threads, so an unchecked value could exhaust the process table.
  static constexpr std::size_t kMaxThreads = 1024;
};

/// (preset, seed, solver) key of one cell; `point` indexes the instance grid
/// (preset × seed), which the harness materializes once per point.
struct CellKey {
  std::size_t preset = 0;  ///< index into plan.presets
  std::uint64_t seed = 0;
  std::size_t solver = 0;  ///< index into plan.solvers
  std::size_t point = 0;
};

/// Maps a flat cell index (row-major preset, seed, solver) to its key.
[[nodiscard]] CellKey cell_key(const ExperimentPlan& plan, std::size_t cell);

/// Derives the per-cell solver seed by chained SplitMix64 over FNV-1a hashes
/// of the names and the instance seed. Depends only on the cell key (never on
/// execution order or thread count) and decorrelates neighbouring cells, so
/// randomized solvers see independent streams per (preset, seed, solver).
[[nodiscard]] std::uint64_t cell_seed(std::string_view preset,
                                      std::uint64_t seed,
                                      std::string_view solver);

/// Parses a plan file: `key = value` lines, '#' comments, each line handed
/// to apply_plan_key(). Throws CheckError on malformed lines; the result is
/// validate()d.
[[nodiscard]] ExperimentPlan parse_plan(std::istream& is);
[[nodiscard]] ExperimentPlan load_plan(const std::string& path);

/// Sets one plan key from its text value. This is the one parser of every
/// sweep knob: plan-file lines and setsched_expt's override flags both land
/// here. Keys: presets, solvers ("all" expands to the full registry), seeds
/// (`N` means 1..N, `A..B` is inclusive), epsilon, precision, time_limit_s,
/// threads, timing (on/off), inject (fault spec), lp_audit (on/off). Throws CheckError on unknown keys or malformed values;
/// cross-key checks are left to validate().
void apply_plan_key(ExperimentPlan& plan, std::string_view key,
                    std::string_view value);

/// Parses the `seeds` syntax of apply_plan_key into [begin, end]; throws on empty ranges.
void parse_seed_range(std::string_view text, std::uint64_t* begin,
                      std::uint64_t* end);

/// Splits a comma-separated list, trimming whitespace, dropping empty items.
[[nodiscard]] std::vector<std::string> split_list(std::string_view text);

/// Strict whole-token decimal uint64 parse (no sign, no whitespace, no
/// trailing junk — std::stoull would wrap "-1" to 2^64-1); throws CheckError
/// naming `what`. Shared by the plan parser and the CLI flag parsers.
[[nodiscard]] std::uint64_t parse_u64(std::string_view token,
                                      const std::string& what);

/// Strict whole-token parse of a finite double > 0 (std::stod would accept
/// "0.5abc" as 0.5); throws CheckError naming `what`.
[[nodiscard]] double parse_positive_double(std::string_view token,
                                           const std::string& what);

}  // namespace setsched::expt
