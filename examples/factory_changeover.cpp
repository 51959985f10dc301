// Factory changeover scenario (uniformly related machines): an injection
// molding shop with presses of different throughput. Orders are grouped by
// mold (setup class); switching molds costs a class-dependent changeover.
// Compares the Lemma 2.1 setup-aware LPT and the Section 2.1 PTAS.
//
//   ./examples/factory_changeover

#include <iostream>

#include "core/bounds.h"
#include "core/generators.h"
#include "uniform/lpt.h"
#include "uniform/ptas.h"

using namespace setsched;

int main() {
  UniformGenParams params;
  params.num_jobs = 48;        // orders
  params.num_machines = 5;     // presses
  params.num_classes = 6;      // molds
  params.min_job_size = 5;     // minutes of molding at unit speed
  params.max_job_size = 90;
  params.min_setup = 20;       // mold changeovers are expensive
  params.max_setup = 60;
  params.profile = SpeedProfile::kUniformRandom;
  params.max_speed_ratio = 3.0;  // newest press is 3x the oldest

  const UniformInstance shop = generate_uniform(params, 2024);
  const double lb = uniform_lower_bound(shop);
  std::cout << "Molding shop: " << shop.num_jobs() << " orders, "
            << shop.num_machines() << " presses, " << shop.num_classes()
            << " molds. Lower bound on the makespan: " << lb << "\n\n";

  const ScheduleResult merged = lpt_with_placeholders(shop);
  std::cout << "Lemma 2.1 LPT (changeover-aware):   " << merged.makespan
            << "  (" << merged.makespan / lb << "x LB, proven <= 4.74 OPT)\n";

  PtasOptions popt;
  popt.epsilon = 0.5;
  const PtasResult ptas = ptas_uniform(shop, popt);
  std::cout << "Section 2.1 PTAS (eps = 1/2):       " << ptas.makespan
            << "  (" << ptas.makespan / lb << "x LB";
  if (ptas.lower_bound > 0) {
    std::cout << ", certified OPT > " << ptas.lower_bound;
  }
  std::cout << ")\n";
  if (ptas.resource_limited) {
    std::cout << "  note: a DP probe hit its state budget; result falls back"
                 " to the best completed probe\n";
  }
  return 0;
}
