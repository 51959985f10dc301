#pragma once

#include <cstddef>
#include <vector>

namespace setsched::lp::internal {

/// Devex reference-framework weights (Forrest & Goldfarb, "Steepest-edge
/// simplex algorithms for linear programming", 1992) for the dual simplex's
/// leaving-row selection. A weight w_i approximates the steepest-edge norm
/// of basis slot i measured within the reference framework established at
/// the last reset(); the classic selection rule maximizes violation^2 / w_i.
/// After each basis change the weights are refreshed with the rank-one
/// Devex update: every slot touched by the pivot column inherits at least
/// the pivot slot's weight scaled by its pivot ratio, and the pivot slot
/// itself restarts from its own scaled weight. Weights only ever grow between resets, so a
/// runaway maximum (overflowed()) signals that the reference framework is
/// stale and a reset establishes a fresh one.
class DevexWeights {
 public:
  /// Establishes a new reference framework over `n` slots (all weights 1).
  void reset(std::size_t n) {
    w_.assign(n, 1.0);
    max_w_ = 1.0;
  }

  /// Selection score of slot i with the given violation (its primal
  /// infeasibility).
  [[nodiscard]] double score(std::size_t i, double violation) const {
    return violation * violation / w_[i];
  }

  /// Devex update for a slot i != pivot whose pivot-column ratio is
  /// `ratio` = alpha_i / alpha_pivot, given the pivot slot's pre-update
  /// weight.
  void update_neighbor(std::size_t i, double ratio, double pivot_weight) {
    const double candidate = ratio * ratio * pivot_weight;
    if (candidate > w_[i]) {
      w_[i] = candidate;
      if (candidate > max_w_) max_w_ = candidate;
    }
  }

  /// Devex update for the pivot slot itself: its new weight is the old one
  /// seen through the pivot value, floored at the reference weight.
  void update_pivot(std::size_t i, double pivot_weight, double pivot_value) {
    double w = pivot_weight / (pivot_value * pivot_value);
    if (w < 1.0) w = 1.0;
    w_[i] = w;
    if (w > max_w_) max_w_ = w;
  }

  [[nodiscard]] double weight(std::size_t i) const { return w_[i]; }

  /// True once the largest weight has outgrown the reference framework; the
  /// caller should reset(). The classic threshold keeps weights within a few
  /// orders of magnitude of their steepest-edge meaning.
  [[nodiscard]] bool overflowed() const noexcept { return max_w_ > 1e7; }

 private:
  std::vector<double> w_;
  double max_w_ = 1.0;
};

}  // namespace setsched::lp::internal
