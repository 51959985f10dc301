// Heterogeneous cluster scenario (unrelated machines): tasks grouped by the
// container image they need (setup class = image pull onto the node). Run
// times differ arbitrarily across nodes (CPU generations, accelerators).
// Compares the greedy baseline, Theorem 3.3 randomized rounding (direct LP and
// configuration-LP column generation), and a local-search post-pass.
//
//   ./examples/cluster_datacenter

#include <iostream>

#include "colgen/config_lp.h"
#include "core/generators.h"
#include "improve/local_search.h"
#include "unrelated/greedy.h"
#include "unrelated/rounding.h"

using namespace setsched;

int main() {
  PlantedGenParams params;
  params.num_jobs = 60;      // tasks
  params.num_machines = 6;   // nodes
  params.num_classes = 12;   // container images
  params.target_load = 120.0;
  params.offplan_factor = 4.0;  // off-node runtimes up to 4x slower
  params.setup_fraction = 0.25;

  const PlantedUnrelated planted = generate_planted_unrelated(params, 7);
  const Instance& cluster = planted.instance;
  std::cout << "Cluster: " << cluster.num_jobs() << " tasks, "
            << cluster.num_machines() << " nodes, " << cluster.num_classes()
            << " images. A planted schedule achieves "
            << planted.planted_makespan << ".\n\n";

  const auto line = [&](const char* name, double ms) {
    std::cout << name << ms << "  (" << ms / planted.planted_makespan
              << "x planted)\n";
  };

  const ScheduleResult spread = greedy_min_load(cluster);
  line("greedy min-load:          ", spread.makespan);

  RoundingOptions ropt;
  ropt.seed = 123;
  const RoundingResult direct = randomized_rounding(cluster, ropt);
  line("rounding (direct LP):     ", direct.makespan);
  std::cout << "    LP window [" << direct.lp_lower_bound << ", "
            << direct.lp_T << "], " << direct.fallback_jobs
            << " fallback placements\n";

  ThreadPool pool;
  ConfigLpOptions copt;
  copt.pool = &pool;
  const RoundingResult viaconfig = randomized_rounding_config(cluster, ropt, copt);
  line("rounding (config LP):     ", viaconfig.makespan);

  const LocalSearchResult polished =
      local_search(cluster, direct.schedule);
  line("rounding + local search:  ", polished.makespan);
  std::cout << "    " << polished.moves_applied << " improving moves in "
            << polished.sweeps << " sweeps\n";
  return 0;
}
