// comx_perfbench: one workload of the comx benchmark per invocation.
//
//   comx_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --serve-bin PATH [--size tiny] [--expect-revenue X]
//                  [--gen-stall-ms MS]
//
// Prints human-readable lines (checks, sample counts, tracing overhead) and,
// as the last stdout line, one JSON object: correct / attempted / failed and
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 1 when a check fails, 2 on a usage error or a failed run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

namespace {

const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "comx_perfbench: %s\nusage: comx_perfbench --workload "
               "replay_demcom|replay_ramcom|serve_open|offline_bound --seed N "
               "--seconds S --trace 0|1 [--serve-bin PATH] [--size tiny] "
               "[--expect-revenue X] [--gen-stall-ms MS]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  const char* workload = FlagValue(argc, argv, "--workload");
  const char* seed = FlagValue(argc, argv, "--seed");
  const char* seconds = FlagValue(argc, argv, "--seconds");
  const char* trace = FlagValue(argc, argv, "--trace");
  if (workload == nullptr || seed == nullptr || seconds == nullptr ||
      trace == nullptr) {
    return Usage("missing --workload, --seed, --seconds or --trace");
  }
  options.workload = workload;
  options.seed = std::strtoull(seed, nullptr, 10);
  options.seconds = std::atof(seconds);
  options.trace = std::strcmp(trace, "1") == 0;
  if (const char* v = FlagValue(argc, argv, "--serve-bin")) options.serve_bin = v;
  if (const char* v = FlagValue(argc, argv, "--size")) {
    if (std::strcmp(v, "tiny") != 0) return Usage("--size takes only tiny");
    options.tiny = true;
  }
  if (const char* v = FlagValue(argc, argv, "--expect-revenue")) {
    options.expect_revenue = std::strtod(v, nullptr);
  }
  if (const char* v = FlagValue(argc, argv, "--gen-stall-ms")) {
    options.gen_stall_ms = std::atof(v);
  }

  perfbench::Report report;
  comx::Status status;
  if (options.workload == "replay_demcom" || options.workload == "replay_ramcom") {
    status = perfbench::RunReplay(options, &report);
  } else if (options.workload == "serve_open") {
    status = perfbench::RunServeOpen(options, &report);
  } else if (options.workload == "offline_bound") {
    status = perfbench::RunOffline(options, &report);
  } else {
    return Usage("unknown workload");
  }
  if (!status.ok()) {
    std::fprintf(stderr, "comx_perfbench: %s\n", status.ToString().c_str());
    return 2;
  }
  for (const std::string& name :
       options.trace ? std::vector<std::string>{} : report.MissingEndToEnd()) {
    std::fprintf(stderr, "comx_perfbench: metric %s was not measured\n",
                 name.c_str());
    return 2;
  }
  std::printf("%s\n", report.JsonLine(options.trace).c_str());
  return report.correct() ? 0 : 1;
}
