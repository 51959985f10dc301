#include "colgen/coverage_master.h"

#include <algorithm>

namespace setsched {

CoverageMaster::CoverageMaster(std::size_t num_jobs, std::size_t num_machines,
                               const lp::SimplexOptions& simplex)
    : session_(lp::Model(lp::Objective::kMaximize), simplex),
      num_jobs_(num_jobs),
      job_dual_(num_jobs, 1.0),
      machine_dual_(num_machines, 0.0) {
  lp::Model& model = session_.model();
  for (JobId j = 0; j < num_jobs; ++j) model.add_variable(0.0, 1.0, 1.0);
  for (JobId j = 0; j < num_jobs; ++j) {
    model.add_constraint({{j, 1.0}}, lp::Sense::kLessEqual, 0.0);
  }
  for (MachineId i = 0; i < num_machines; ++i) {
    model.add_constraint({}, lp::Sense::kLessEqual, 1.0);
  }
}

std::size_t CoverageMaster::add_column(MachineId i,
                                       const std::vector<JobId>& jobs) {
  lp::Model& model = session_.model();
  const std::size_t z = model.add_variable(0.0, 1.0, 0.0);
  for (const JobId j : jobs) model.add_to_row(j, z, -1.0);
  model.add_to_row(num_jobs_ + i, z, 1.0);
  return z;
}

void CoverageMaster::set_enabled(std::size_t z, bool enabled) {
  session_.model().set_bounds(z, 0.0, enabled ? 1.0 : 0.0);
}

void CoverageMaster::update_duals() {
  const std::vector<double>& duals = session_.last().duals;
  for (JobId j = 0; j < job_dual_.size(); ++j) {
    job_dual_[j] = std::max(0.0, duals[j]);
  }
  for (MachineId i = 0; i < machine_dual_.size(); ++i) {
    machine_dual_[i] = std::max(0.0, duals[num_jobs_ + i]);
  }
}

}  // namespace setsched
