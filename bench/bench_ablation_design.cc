// Design ablations called out in DESIGN.md §5:
//   AB2.1 nearest- vs random-inner-worker choice (DemCOM Alg. 1 line 5 vs
//         RamCOM Alg. 3 line 7);
//   AB2.2 RamCOM threshold distribution: drawn uniformly vs fixed per k vs
//         no threshold (always inner-first);
//   AB2.3 Monte-Carlo accuracy (xi) effect on DemCOM end-to-end revenue.

#include <cmath>
#include <cstdio>
#include <memory>

#include "common.h"
#include "core/dem_com.h"
#include "core/ram_com.h"
#include "core/tota_greedy.h"
#include "datagen/synthetic.h"
#include "sim/simulator.h"

namespace {

using namespace comx;  // NOLINT — leaf benchmark binary

double RunRevenue(OnlineMatcher* m0, OnlineMatcher* m1,
                  const Instance& instance, int seeds) {
  SimConfig sim;
  sim.workers_recycle = true;
  sim.measure_response_time = false;
  double total = 0.0;
  for (int s = 1; s <= seeds; ++s) {
    auto r = RunSimulation(instance, {m0, m1}, sim,
                           static_cast<uint64_t>(s));
    if (!r.ok()) {
      std::fprintf(stderr, "sim: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    total += r->metrics.TotalRevenue();
  }
  return total / seeds;
}

}  // namespace

int main(int argc, char** argv) {
  const int seeds = static_cast<int>(bench::ArgInt(argc, argv, "--seeds", 6));
  SyntheticConfig config;
  config.requests_per_platform = {1250};
  config.workers_per_platform = {250};
  config.seed = 2020;
  auto instance = GenerateSynthetic(config);
  if (!instance.ok()) return 1;
  std::printf("design ablations on %s, %d seeds each\n\n",
              instance->Summary().c_str(), seeds);

  // AB2.3: DemCOM revenue vs Monte-Carlo tolerance.
  std::printf("AB2.3 DemCOM revenue vs Alg.2 tolerance xi:\n");
  for (double xi : {0.2, 0.1, 0.05, 0.02}) {
    MinPaymentConfig pc;
    pc.xi = xi;
    DemCom a(pc), b(pc);
    std::printf("  xi=%.2f  revenue %.1f\n", xi,
                RunRevenue(&a, &b, *instance, seeds));
  }

  // AB2.2: RamCOM threshold arms, one fixed exponent at a time.
  std::printf("\nAB2.2 RamCOM revenue per threshold arm (theta = %d):\n",
              static_cast<int>(std::ceil(
                  std::log(instance->MaxRequestValue() + 1.0))));
  {
    RamCom a, b;
    std::printf("  uniform draw  revenue %.1f\n",
                RunRevenue(&a, &b, *instance, seeds));
  }
  for (int k = 0;
       k < static_cast<int>(std::ceil(
               std::log(instance->MaxRequestValue() + 1.0)));
       ++k) {
    RamCom a(k), b(k);
    std::printf("  fixed k=%d     revenue %.1f\n", k,
                RunRevenue(&a, &b, *instance, seeds));
  }

  // AB2.1: nearest vs random inner-worker selection, isolated from
  // cooperation by comparing two TOTA variants that differ only in the
  // selection rule.
  std::printf("\nAB2.1 inner-worker selection (no cooperation):\n");
  {
    TotaGreedy a(/*random_choice=*/false), b(false);
    std::printf("  nearest  revenue %.1f\n",
                RunRevenue(&a, &b, *instance, seeds));
  }
  {
    TotaGreedy a(/*random_choice=*/true), b(true);
    std::printf("  random   revenue %.1f\n",
                RunRevenue(&a, &b, *instance, seeds));
  }
  // AB2.4: nearest-K candidate cap — the pricing cost is linear in the
  // candidate count, so capping trades a little revenue for latency.
  std::printf("\nAB2.4 DemCOM nearest-K candidate cap (rad 2.5 km):\n");
  {
    SyntheticConfig wide = config;
    wide.radius_km = 2.5;
    auto wide_instance = GenerateSynthetic(wide);
    if (!wide_instance.ok()) return 1;
    for (int cap : {0, 2, 4, 8, 16}) {
      SimConfig sim;
      sim.workers_recycle = true;
      sim.measure_response_time = true;
      double rev = 0.0, ms = 0.0;
      for (int s = 1; s <= seeds; ++s) {
        DemCom a({}, cap), b({}, cap);
        auto r = RunSimulation(*wide_instance, {&a, &b}, sim,
                               static_cast<uint64_t>(s));
        if (!r.ok()) return 1;
        rev += r->metrics.TotalRevenue();
        ms += r->metrics.Aggregate().MeanResponseTimeMs();
      }
      std::printf("  cap=%-3s revenue %.1f  response %.4f ms\n",
                  cap == 0 ? "inf" : std::to_string(cap).c_str(),
                  rev / seeds, ms / seeds);
    }
  }

  std::printf("\nexpected shape: low/mid threshold arms (k=0..2) beat the "
              "uniform draw by avoiding the collapsing top arm; nearest "
              "selection beats random slightly (better geometry, less "
              "drift).\n");
  return 0;
}
