// Diffs a fresh bench_sweep run against the committed BENCH baseline.
//
//   bench_check --baseline BENCH_sweep.json --current /tmp/sweep.json \
//               [--rel-tol 1e-9] [--quiet]
//
// Deterministic fields must match within the relative tolerance; timing/
// footprint/latency fields (wall_*, runs_per_sec, rss_*, jobs, latency_*)
// are printed for context — per-row deltas such as latency_p99_us
// (+/-%) — but never fail the check. Exit 0 = reproduces baseline, 1 =
// mismatch, 2 = usage/IO error.

#include <cstdio>
#include <string>

#include "exp/bench_record.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace comx;

  Flags flags(argc, argv);
  const char* baseline_path = flags.Get("--baseline");
  const char* current_path = flags.Get("--current");
  exp::BenchCompareOptions options;
  options.rel_tol = flags.Double("--rel-tol", options.rel_tol);
  const bool quiet = flags.Has("--quiet");
  if (!flags.ok()) {
    std::fprintf(stderr, "bench_check: %s\n",
                 flags.status().ToString().c_str());
    return 2;
  }
  if (baseline_path == nullptr || current_path == nullptr) {
    std::fprintf(stderr,
                 "usage: bench_check --baseline PATH --current PATH "
                 "[--rel-tol X] [--quiet]\n");
    return 2;
  }

  auto baseline = exp::ReadBenchRecords(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "baseline %s: %s\n", baseline_path,
                 baseline.status().ToString().c_str());
    return 2;
  }
  auto current = exp::ReadBenchRecords(current_path);
  if (!current.ok()) {
    std::fprintf(stderr, "current %s: %s\n", current_path,
                 current.status().ToString().c_str());
    return 2;
  }

  const exp::BenchCompareResult result =
      exp::CompareBenchRecords(*baseline, *current, options);
  if (!quiet) {
    for (const std::string& note : result.notes) {
      std::printf("%s\n", note.c_str());
    }
  }
  for (const std::string& mismatch : result.mismatches) {
    std::printf("MISMATCH: %s\n", mismatch.c_str());
  }
  if (!result.ok()) {
    std::printf("bench_check: %zu mismatch(es) against %s\n",
                result.mismatches.size(), baseline_path);
    return 1;
  }
  std::printf("bench_check: %zu record(s) reproduce %s (rel tol %.1e)\n",
              baseline->size(), baseline_path, options.rel_tol);
  return 0;
}
