#include "lp/model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace setsched::lp {

std::size_t Model::add_variable(double lower, double upper, double objective) {
  check(std::isfinite(lower), "variable lower bound must be finite");
  check(!(upper < lower), "variable upper bound below lower bound");
  lower_.push_back(lower);
  upper_.push_back(upper);
  obj_.push_back(objective);
  return lower_.size() - 1;
}

std::size_t Model::add_constraint(std::vector<Entry> row, Sense sense,
                                  double rhs) {
  // Merge duplicate columns so downstream code sees clean rows.
  std::sort(row.begin(), row.end(),
            [](const Entry& a, const Entry& b) { return a.col < b.col; });
  std::vector<Entry> merged;
  merged.reserve(row.size());
  for (const Entry& e : row) {
    check(e.col < num_variables(), "constraint references unknown column");
    check(std::isfinite(e.value), "constraint coefficient must be finite");
    if (!merged.empty() && merged.back().col == e.col) {
      merged.back().value += e.value;
    } else {
      merged.push_back(e);
    }
  }
  check(std::isfinite(rhs), "constraint rhs must be finite");
  rows_.push_back(std::move(merged));
  senses_.push_back(sense);
  rhs_.push_back(rhs);
  return rows_.size() - 1;
}

void Model::set_objective(std::size_t col, double coefficient) {
  check(col < num_variables(), "unknown column");
  obj_[col] = coefficient;
}

void Model::set_rhs(std::size_t row, double rhs) {
  check(row < num_constraints(), "unknown row");
  check(std::isfinite(rhs), "constraint rhs must be finite");
  rhs_[row] = rhs;
}

void Model::set_bounds(std::size_t col, double lower, double upper) {
  check(col < num_variables(), "unknown column");
  check(std::isfinite(lower), "variable lower bound must be finite");
  check(!(upper < lower), "variable upper bound below lower bound");
  lower_[col] = lower;
  upper_[col] = upper;
}

void Model::add_to_row(std::size_t row, std::size_t col, double value) {
  check(row < num_constraints(), "unknown row");
  check(col < num_variables(), "add_to_row references unknown column");
  check(std::isfinite(value), "constraint coefficient must be finite");
  check(rows_[row].empty() || rows_[row].back().col < col,
        "add_to_row: column must extend the row (rows stay sorted)");
  rows_[row].push_back({col, value});
}

double Model::row_activity(std::size_t r, const std::vector<double>& x) const {
  double acc = 0.0;
  for (const Entry& e : rows_[r]) acc += e.value * x[e.col];
  return acc;
}

double Model::max_violation(const std::vector<double>& x) const {
  check(x.size() == num_variables(), "assignment size mismatch");
  double worst = 0.0;
  for (std::size_t j = 0; j < num_variables(); ++j) {
    worst = std::max(worst, lower_[j] - x[j]);
    if (std::isfinite(upper_[j])) worst = std::max(worst, x[j] - upper_[j]);
  }
  for (std::size_t r = 0; r < num_constraints(); ++r) {
    const double lhs = row_activity(r, x);
    switch (senses_[r]) {
      case Sense::kLessEqual:
        worst = std::max(worst, lhs - rhs_[r]);
        break;
      case Sense::kGreaterEqual:
        worst = std::max(worst, rhs_[r] - lhs);
        break;
      case Sense::kEqual:
        worst = std::max(worst, std::abs(lhs - rhs_[r]));
        break;
    }
  }
  return worst;
}

double Model::objective_value(const std::vector<double>& x) const {
  double acc = 0.0;
  for (std::size_t j = 0; j < num_variables(); ++j) acc += obj_[j] * x[j];
  return acc;
}

}  // namespace setsched::lp
