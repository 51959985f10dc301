// Print-shop scenario (restricted assignment with class-uniform
// restrictions, Theorem 3.10): each job family (paper stock) can only run on
// the presses that stock it, all jobs of a family share that machine set,
// and loading stock takes a family-dependent setup. Compares the 2-approx
// pseudoforest rounding against greedy and the LP lower bound.
//
//   ./examples/print_shop_restricted

#include <iostream>

#include "core/generators.h"
#include "restricted/approx.h"
#include "unrelated/greedy.h"

using namespace setsched;

int main() {
  RestrictedGenParams params;
  params.num_jobs = 60;      // print jobs
  params.num_machines = 8;   // presses
  params.num_classes = 10;   // paper stocks
  params.min_eligible = 2;   // each stock loaded on 2-4 presses
  params.max_eligible = 4;
  params.min_job_size = 5;
  params.max_job_size = 40;
  params.min_setup = 10;     // stock change
  params.max_setup = 25;

  const Instance shop = generate_restricted_class_uniform(params, 99);
  std::cout << "Print shop: " << shop.num_jobs() << " jobs, "
            << shop.num_machines() << " presses, " << shop.num_classes()
            << " stocks (class-uniform restricted assignment: "
            << std::boolalpha << is_restricted_class_uniform(shop) << ")\n\n";

  const ScheduleResult spread = greedy_min_load(shop);
  const ConstantApproxResult two = two_approx_restricted(shop, 0.02);

  std::cout << "greedy min-load:        " << spread.makespan << "\n";
  std::cout << "Theorem 3.10 2-approx:  " << two.makespan << "\n";
  std::cout << "  LP-certified window: OPT in [" << two.lp_lower_bound << ", "
            << two.makespan << "], guarantee " << two.makespan / two.lp_T
            << " <= 2 of the LP guess T = " << two.lp_T << "\n";
  std::cout << "  measured vs LP lower bound: "
            << two.makespan / two.lp_lower_bound << "x\n";
  return 0;
}
