#include "api/presets.h"

#include <fstream>

#include "common/check.h"
#include "core/generators.h"
#include "core/io.h"

namespace setsched {

namespace {

struct Preset {
  const char* name;
  ProblemInput (*make)(std::uint64_t seed);
};

// Single source of truth for preset names and their generators; sorted by
// name (preset_names() relies on it).
constexpr Preset kPresets[] = {
    {"class-uniform",
     [](std::uint64_t seed) {
       return ProblemInput::from_unrelated(
           generate_class_uniform_processing({}, seed));
     }},
    {"class-uniform-tiny",
     [](std::uint64_t seed) {
       ClassUniformGenParams params;
       params.num_jobs = 10;
       params.num_machines = 3;
       params.num_classes = 3;
       return ProblemInput::from_unrelated(
           generate_class_uniform_processing(params, seed));
     }},
    {"planted",
     [](std::uint64_t seed) {
       return ProblemInput::from_unrelated(
           generate_planted_unrelated({}, seed).instance);
     }},
    {"restricted",
     [](std::uint64_t seed) {
       return ProblemInput::from_unrelated(
           generate_restricted_class_uniform({}, seed));
     }},
    {"restricted-tiny",
     [](std::uint64_t seed) {
       RestrictedGenParams params;
       params.num_jobs = 10;
       params.num_machines = 3;
       params.num_classes = 3;
       return ProblemInput::from_unrelated(
           generate_restricted_class_uniform(params, seed));
     }},
    {"uniform-large",
     [](std::uint64_t seed) {
       UniformGenParams params;
       params.num_jobs = 200;
       params.num_machines = 16;
       params.num_classes = 12;
       params.profile = SpeedProfile::kTwoTier;
       return ProblemInput::from_uniform(generate_uniform(params, seed));
     }},
    {"uniform-small",
     [](std::uint64_t seed) {
       return ProblemInput::from_uniform(generate_uniform({}, seed));
     }},
    {"uniform-tiny",
     [](std::uint64_t seed) {
       UniformGenParams params;
       params.num_jobs = 10;
       params.num_machines = 3;
       params.num_classes = 3;
       return ProblemInput::from_uniform(generate_uniform(params, seed));
     }},
    {"unrelated-medium",
     [](std::uint64_t seed) {
       UnrelatedGenParams params;
       params.num_jobs = 120;
       params.num_machines = 10;
       params.num_classes = 10;
       params.eligibility = 0.8;
       params.correlated = true;
       return ProblemInput::from_unrelated(generate_unrelated(params, seed));
     }},
    {"unrelated-midsize",
     [](std::uint64_t seed) {
       // Mid-size ground-truth scenario: too big to prove (n ~ 40), the
       // right size for the exact dive mode's gap-certified incumbents.
       UnrelatedGenParams params;
       params.num_jobs = 40;
       params.num_machines = 6;
       params.num_classes = 8;
       params.eligibility = 0.85;
       params.correlated = true;
       return ProblemInput::from_unrelated(generate_unrelated(params, seed));
     }},
    {"unrelated-small",
     [](std::uint64_t seed) {
       return ProblemInput::from_unrelated(generate_unrelated({}, seed));
     }},
    {"unrelated-tiny",
     [](std::uint64_t seed) {
       // Brute-forceable scale (m^n enumerable in test time): the preset the
       // branch-and-price differential tests compare against exhaustive
       // enumeration and the config-vs-assignment root-bound dominance check.
       // The other *-tiny presets share its shape: bench/plans/paper.plan
       // needs `exact` to prove every cell.
       UnrelatedGenParams params;
       params.num_jobs = 10;
       params.num_machines = 3;
       params.num_classes = 3;
       return ProblemInput::from_unrelated(generate_unrelated(params, seed));
     }},
};

}  // namespace

ProblemInput generate_preset(const std::string& preset, std::uint64_t seed) {
  for (const Preset& entry : kPresets) {
    if (preset == entry.name) return entry.make(seed);
  }
  throw CheckError("unknown preset '" + preset + "'");
}

std::vector<std::string> preset_names() {
  std::vector<std::string> names;
  names.reserve(std::size(kPresets));
  for (const Preset& entry : kPresets) names.emplace_back(entry.name);
  return names;
}

ProblemInput load_problem(const std::string& path) {
  std::ifstream file(path);
  check(file.good(), "cannot open instance file '" + path + "'");
  // Sniff the kind token of the "setsched <kind> <version>" header.
  std::string magic, kind;
  check(static_cast<bool>(file >> magic >> kind),
        "instance file '" + path + "' has no header");
  file.seekg(0);
  if (kind == "uniform") {
    return ProblemInput::from_uniform(load_uniform(file));
  }
  return ProblemInput::from_unrelated(load_instance(file));
}

}  // namespace setsched
