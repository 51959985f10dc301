#include "expt/plan.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>

#include "api/presets.h"
#include "api/registry.h"
#include "common/check.h"
#include "common/prng.h"
#include "lp/fault.h"

namespace setsched::expt {

namespace {

/// FNV-1a 64-bit: a fixed, platform-independent string hash (std::hash makes
/// no cross-implementation guarantee, and cell seeds must be stable).
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// The on/off switches of a plan (timing, lp_audit).
bool parse_on_off(std::string_view value, const std::string& what) {
  check(value == "on" || value == "off",
        "plan " + what + " must be 'on' or 'off', got '" +
            std::string(value) + "'");
  return value == "on";
}

}  // namespace

std::uint64_t parse_u64(std::string_view token, const std::string& what) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  check(ec == std::errc{} && end == token.data() + token.size(),
        "bad " + what + " '" + std::string(token) + "'");
  return value;
}

double parse_positive_double(std::string_view token, const std::string& what) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  check(ec == std::errc{} && end == token.data() + token.size() &&
            std::isfinite(value),
        "bad " + what + " '" + std::string(token) + "' (want a number)");
  check(value > 0.0,
        "bad " + what + " '" + std::string(token) + "' (want a positive number)");
  return value;
}

void ExperimentPlan::validate() const {
  check(!presets.empty(), "experiment plan has no presets");
  check(!solvers.empty(), "experiment plan has no solvers");
  check(seed_end >= seed_begin, "experiment plan has an empty seed range");
  const std::vector<std::string> known_presets = preset_names();
  for (auto it = presets.begin(); it != presets.end(); ++it) {
    check(std::find(known_presets.begin(), known_presets.end(), *it) !=
              known_presets.end(),
          "unknown preset '" + *it + "' in experiment plan");
    check(std::find(presets.begin(), it, *it) == it,
          "preset '" + *it + "' repeats in experiment plan");
  }
  const SolverRegistry& registry = SolverRegistry::global();
  for (auto it = solvers.begin(); it != solvers.end(); ++it) {
    check(registry.contains(*it),
          "unknown solver '" + *it + "' in experiment plan");
    check(std::find(solvers.begin(), it, *it) == it,
          "solver '" + *it + "' repeats in experiment plan");
  }
  // The full 0..2^64-1 range wrapped num_seeds() to 0, and a larger total
  // escaped from the harness's allocation as std::length_error. The name
  // lists are duplicate-free and bounded by the registry, so only the seed
  // count can make the product overflow.
  check(seed_end - seed_begin < kMaxCells &&
            num_seeds() <= kMaxCells / (presets.size() * solvers.size()),
        "experiment plan has more than " + std::to_string(kMaxCells) +
            " cells");
  check(threads <= kMaxThreads,
        "experiment plan threads must be at most " +
            std::to_string(kMaxThreads));
  check(epsilon > 0.0, "experiment plan epsilon must be positive");
  check(precision > 0.0, "experiment plan precision must be positive");
  check(time_limit_s > 0.0, "experiment plan time_limit_s must be positive");
  // Surface a malformed injection spec at plan time, not mid-sweep (the
  // per-cell seed is substituted later; 1 is just a validity probe).
  if (!inject.empty()) (void)lp::FaultPlan::parse(inject, 1);
}

CellKey cell_key(const ExperimentPlan& plan, std::size_t cell) {
  const std::size_t per_point = plan.solvers.size();
  const std::size_t per_preset = plan.num_seeds() * per_point;
  CellKey key;
  key.preset = cell / per_preset;
  const std::size_t rest = cell % per_preset;
  key.seed = plan.seed_begin + rest / per_point;
  key.solver = rest % per_point;
  key.point = key.preset * plan.num_seeds() +
              static_cast<std::size_t>(key.seed - plan.seed_begin);
  return key;
}

std::uint64_t cell_seed(std::string_view preset, std::uint64_t seed,
                        std::string_view solver) {
  SplitMix64 a(fnv1a(preset));
  SplitMix64 b(a() ^ seed);
  SplitMix64 c(b() ^ fnv1a(solver));
  return c();
}

std::vector<std::string> split_list(std::string_view text) {
  std::vector<std::string> items;
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string_view item =
        trim(comma == std::string_view::npos ? text : text.substr(0, comma));
    if (!item.empty()) items.emplace_back(item);
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  return items;
}

void parse_seed_range(std::string_view text, std::uint64_t* begin,
                      std::uint64_t* end) {
  text = trim(text);
  check(!text.empty(), "empty seed range");
  const std::size_t dots = text.find("..");
  if (dots == std::string_view::npos) {
    const std::uint64_t count = parse_u64(text, "seed count");
    check(count >= 1, "seed count must be at least 1");
    *begin = 1;
    *end = count;
    return;
  }
  *begin = parse_u64(trim(text.substr(0, dots)), "seed range start");
  *end = parse_u64(trim(text.substr(dots + 2)), "seed range end");
  check(*end >= *begin, "seed range '" + std::string(text) + "' is empty");
}

void apply_plan_key(ExperimentPlan& plan, std::string_view key,
                    std::string_view value) {
  if (key == "presets") {
    plan.presets = split_list(value);
  } else if (key == "solvers") {
    plan.solvers =
        value == "all" ? SolverRegistry::global().names() : split_list(value);
  } else if (key == "seeds") {
    parse_seed_range(value, &plan.seed_begin, &plan.seed_end);
  } else if (key == "epsilon") {
    plan.epsilon = parse_positive_double(value, "epsilon");
  } else if (key == "precision") {
    plan.precision = parse_positive_double(value, "precision");
  } else if (key == "time_limit_s") {
    plan.time_limit_s = parse_positive_double(value, "time_limit_s");
  } else if (key == "inject") {
    plan.inject = std::string(value);
  } else if (key == "lp_audit") {
    plan.lp_audit = parse_on_off(value, "lp_audit");
  } else if (key == "threads") {
    plan.threads = static_cast<std::size_t>(parse_u64(value, "threads"));
  } else if (key == "timing") {
    plan.record_timing = parse_on_off(value, "timing");
  } else {
    check(false, "unknown plan key '" + std::string(key) + "'");
  }
}

ExperimentPlan parse_plan(std::istream& is) {
  ExperimentPlan plan;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    std::string_view view = line;
    if (const std::size_t hash = view.find('#');
        hash != std::string_view::npos) {
      view = view.substr(0, hash);
    }
    view = trim(view);
    if (view.empty()) continue;
    const std::size_t eq = view.find('=');
    check(eq != std::string_view::npos,
          "plan line " + std::to_string(line_no) + " is not 'key = value': '" +
              std::string(view) + "'");
    apply_plan_key(plan, trim(view.substr(0, eq)), trim(view.substr(eq + 1)));
  }
  plan.validate();
  return plan;
}

ExperimentPlan load_plan(const std::string& path) {
  std::ifstream file(path);
  check(file.good(), "cannot open plan file '" + path + "'");
  return parse_plan(file);
}

}  // namespace setsched::expt
