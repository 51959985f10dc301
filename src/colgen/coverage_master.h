#pragma once

#include <cstddef>
#include <vector>

#include "colgen/config_lp.h"
#include "lp/session.h"

namespace setsched {

/// Which pool columns a probe at pricing bound T may use.
enum class ColumnFit {
  /// True load (Σ proc + touched-class setups) <= T: branch-and-price prices
  /// at an inflated T, where any configuration that truly fits is valid.
  kTrueLoad,
  /// The pricer at T could emit the column (its rounded-up weights fit the
  /// grid), so a converged colgen probe decides the grid LP at T whatever
  /// the pool holds.
  kGrid,
};

/// The configuration LP's restricted master in job-coverage form, with its
/// column pool and column-generation round loop; the colgen T-search
/// (config_lp.h) and the branch-and-price bounder (exact/config_bound.h)
/// both probe through it:
///
///   max  Σ_j u_j
///   s.t. u_j - Σ_{c ∋ j} z_c <= 0    per job j       (row j)
///        Σ_{c on i} z_c      <= 1    per machine i   (row n + i)
///        0 <= u_j, z_c <= 1
///
/// Coverage n certifies that the pooled configurations pack every job
/// fractionally. Columns are appended after the u_j and never erased, so
/// indices never move and every probe warm-starts from the previous one's
/// basis (one lp::Session). A column that conflicts with an active pin or
/// does not fit the current T (ColumnFit) has its bounds forced to [0, 0];
/// unpinning and retuning re-enable exactly what they disabled. Column pools
/// shared across related masters: Lübbecke and Desrosiers 2005.
class CoverageMaster {
 public:
  /// An empty master pricing on `grid` buckets. `colgen_phase` charges
  /// pricing to the colgen_pricing phase and trace span (off for the exact
  /// solvers, whose solver-tier phases are disjoint).
  CoverageMaster(const Instance& instance, std::size_t grid, ColumnFit fit,
                 const lp::SimplexOptions& simplex, bool colgen_phase);

  /// Pin/unpin "job j runs on machine i": machine-i columns missing j and
  /// other machines' columns containing j are disabled while it is active.
  void pin(JobId j, MachineId i);
  void unpin(JobId j);

  /// Sets the pricing bound T and re-blocks the columns that do not fit it.
  void retune(double T);

  /// Up to `max_rounds` rounds at the current T and pins. A round solves
  /// the master (kContested if not optimal or audit-contested), stops at
  /// coverage n - tol (kFeasible), then prices every machine (on `threads`
  /// when given) and appends, in machine order, each configuration that
  /// beats its machine's convexity dual. Appends stop at the first machine
  /// whose pinned jobs alone overflow the grid (kPinsOverflow); a round that
  /// appends nothing ends the probe (kInfeasibleAtGrid).
  [[nodiscard]] ConfigLpStatus probe(std::size_t max_rounds,
                                     ThreadPool* threads = nullptr);

  /// Objective of the last solve (<= n).
  [[nodiscard]] double coverage() const { return session_.last().objective; }
  /// The (x, y) of the last solution: column mass spread over the column's
  /// jobs and touched classes, each job's mass normalized to 1, y >= x.
  /// After a kFeasible probe under ColumnFit::kGrid it satisfies the
  /// assignment-LP rows (1), (2) and (4) at T.
  [[nodiscard]] FractionalAssignment fractional() const;

  [[nodiscard]] std::size_t size() const noexcept { return columns_.size(); }
  [[nodiscard]] std::size_t last_probe_rounds() const noexcept {
    return last_probe_rounds_;
  }
  /// The session's effort (one lp_solve per round) plus cg_columns and
  /// cg_pricing_rounds, over every probe so far.
  [[nodiscard]] EffortCounters effort() const;

  /// Test hook: each column's pin blocks and fit flag match a recount, its
  /// bounds agree with both, and the warm basis stays within the model.
  [[nodiscard]] bool check_invariants() const;

 private:
  struct Column {
    MachineId machine = 0;
    std::vector<JobId> jobs;    ///< sorted
    double load = 0.0;          ///< Σ proc + touched-class setups
    std::size_t z = 0;          ///< master variable index
    int pin_blocks = 0;         ///< active pins this column conflicts with
    bool load_blocked = false;  ///< does not fit the current T
  };

  [[nodiscard]] bool conflicts(const Column& c, JobId j, MachineId i) const;
  [[nodiscard]] bool fits(const Column& c) const;
  void sync_bounds(const Column& c);
  void add_column(MachineId i, std::vector<JobId> jobs);

  const Instance& inst_;
  std::size_t grid_;
  ColumnFit fit_;
  bool colgen_phase_;
  double T_ = -1.0;
  lp::Session session_;
  std::vector<Column> columns_;
  std::vector<MachineId> pinned_;
  std::size_t pricing_rounds_ = 0;
  std::size_t last_probe_rounds_ = 0;
};

}  // namespace setsched
