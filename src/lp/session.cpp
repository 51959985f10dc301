#include "lp/session.h"

#include <utility>

namespace setsched::lp {

Session::Session(Model model, const SimplexOptions& options)
    : model_(std::move(model)), options_(options) {}

const Solution& Session::solve() {
  SimplexOptions simplex = options_;
  if (!basis_.empty()) simplex.warm_start = &basis_;
  last_ = lp::solve(model_, simplex, workspace_);
  ++effort_.lp_solves;
  if (last_.via_dual) ++effort_.lp_dual_solves;
  last_.add_counters(effort_);
  if (!last_.basis.empty() && !last_.audit_contested() &&
      (last_.optimal() || last_.via_dual)) {
    basis_ = last_.basis;
  }
  return last_;
}

const Solution& Session::record_infeasible() {
  ++effort_.lp_solves;
  last_ = Solution{};
  last_.status = SolveStatus::kInfeasible;
  return last_;
}

}  // namespace setsched::lp
