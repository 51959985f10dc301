#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/types.h"

namespace setsched::lp {

enum class Sense { kLessEqual, kGreaterEqual, kEqual };
enum class Objective { kMinimize, kMaximize };

/// One nonzero of a constraint row.
struct Entry {
  std::size_t col = 0;
  double value = 0.0;
};

/// A linear program
///   opt  c^T x
///   s.t. a_r^T x  {<=, >=, =}  b_r   for every row r
///        l_j <= x_j <= u_j           for every column j
/// built incrementally. Lower bounds must be finite (all problems in this
/// library have natural 0 lower bounds); upper bounds may be +infinity.
class Model {
 public:
  explicit Model(Objective sense = Objective::kMinimize) : sense_(sense) {}

  /// Adds a variable, returns its column index.
  std::size_t add_variable(double lower, double upper, double objective);

  /// Adds a constraint, returns its row index. Duplicate column entries in
  /// `row` are summed.
  std::size_t add_constraint(std::vector<Entry> row, Sense sense, double rhs);

  void set_objective(std::size_t col, double coefficient);

  // --- in-place re-parameterization (parametric solves, warm starting) ----
  // The T-search and column generation keep ONE model alive and mutate it
  // between solves so a basis from the previous solve stays meaningful:
  // column indices never move; rhs and bounds change, and rows only grow by
  // appended columns.

  /// Replaces a row's right-hand side.
  void set_rhs(std::size_t row, double rhs);

  /// Replaces a variable's bounds (lower must stay finite, upper >= lower).
  void set_bounds(std::size_t col, double lower, double upper);

  /// Appends an entry for a column that does not yet appear in `row`; the
  /// column index must be >= every column already in the row (the natural
  /// case when extending rows with freshly added variables, as the
  /// restricted master of column generation does).
  void add_to_row(std::size_t row, std::size_t col, double value);

  [[nodiscard]] Objective objective_sense() const noexcept { return sense_; }
  [[nodiscard]] std::size_t num_variables() const noexcept {
    return lower_.size();
  }
  [[nodiscard]] std::size_t num_constraints() const noexcept {
    return rows_.size();
  }

  [[nodiscard]] double lower(std::size_t col) const { return lower_[col]; }
  [[nodiscard]] double upper(std::size_t col) const { return upper_[col]; }
  [[nodiscard]] double objective(std::size_t col) const { return obj_[col]; }
  [[nodiscard]] const std::vector<Entry>& row(std::size_t r) const {
    return rows_[r];
  }
  [[nodiscard]] Sense row_sense(std::size_t r) const { return senses_[r]; }
  [[nodiscard]] double rhs(std::size_t r) const { return rhs_[r]; }

  /// Value of row r's left-hand side under assignment x.
  [[nodiscard]] double row_activity(std::size_t r,
                                    const std::vector<double>& x) const;

  /// Maximum constraint/bound violation of x (for validation in tests).
  [[nodiscard]] double max_violation(const std::vector<double>& x) const;

  /// Objective value of x under the model's sense.
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

 private:
  Objective sense_;
  std::vector<double> lower_, upper_, obj_;
  std::vector<std::vector<Entry>> rows_;
  std::vector<Sense> senses_;
  std::vector<double> rhs_;
};

}  // namespace setsched::lp
