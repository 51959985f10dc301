#include "api/solver.h"

#include <algorithm>
#include <utility>

#include "core/bounds.h"

namespace setsched {

ProblemInput ProblemInput::from_unrelated(Instance instance) {
  instance.validate();
  return ProblemInput{std::move(instance), std::nullopt};
}

ProblemInput ProblemInput::from_uniform(UniformInstance uniform) {
  uniform.validate();
  Instance instance = uniform.to_unrelated();
  return ProblemInput{std::move(instance), std::move(uniform)};
}

double lower_bound(const ProblemInput& input) {
  const double bound = unrelated_lower_bound(input.instance);
  if (!input.uniform.has_value()) return bound;
  return std::max(bound, uniform_lower_bound(*input.uniform));
}

bool Solver::supports(const ProblemInput&) const { return true; }

}  // namespace setsched
