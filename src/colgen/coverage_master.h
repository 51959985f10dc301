#pragma once

#include <cstddef>
#include <vector>

#include "core/types.h"
#include "lp/session.h"

namespace setsched {

/// The restricted master problem of the configuration LP in job-coverage
/// form, shared by the colgen T-search (solve_config_lp) and the
/// branch-and-price bounder (exact/config_bound.h):
///
///   max  Σ_j u_j
///   s.t. u_j - Σ_{c ∋ j} z_c <= 0    per job j       (row j)
///        Σ_{c on i} z_c      <= 1    per machine i   (row n + i)
///        0 <= u_j, z_c <= 1
///
/// Coverage n certifies that the configurations priced so far pack every
/// job fractionally. The u_j are variables 0..n-1; configuration columns
/// are appended after them, so indices never move and the session's warm
/// basis stays valid as the master grows.
class CoverageMaster {
 public:
  CoverageMaster(std::size_t num_jobs, std::size_t num_machines,
                 const lp::SimplexOptions& simplex);

  /// Appends the column of a configuration of machine i covering `jobs`
  /// (distinct, in any order) and returns its variable index.
  std::size_t add_column(MachineId i, const std::vector<JobId>& jobs);

  /// Sets column z's upper bound to 1 (enabled) or 0 (disabled).
  void set_enabled(std::size_t z, bool enabled);

  /// Solves the master warm from the previous solve (lp::Session).
  const lp::Solution& solve() { return session_.solve(); }

  /// Replaces the pricing duals with those of the last solve, clamped at
  /// >= 0 (the maximize convention gives y >= 0 on binding <= rows).
  void update_duals();

  /// Pricing duals per job. Before the first update_duals() every job is
  /// worth 1, so a first pricing round asks for maximum coverage.
  [[nodiscard]] const std::vector<double>& job_duals() const noexcept {
    return job_dual_;
  }
  /// Convexity duals per machine (0 before the first update_duals()).
  [[nodiscard]] const std::vector<double>& machine_duals() const noexcept {
    return machine_dual_;
  }

  [[nodiscard]] const lp::Session& session() const noexcept {
    return session_;
  }

 private:
  lp::Session session_;
  std::size_t num_jobs_;
  std::vector<double> job_dual_;
  std::vector<double> machine_dual_;
};

}  // namespace setsched
