#include "common.h"

#include <cstdio>
#include <cstdlib>

#include "util/flags.h"

namespace comx {
namespace bench {

std::vector<Row> RunTable(const Instance& instance,
                          const TableRunConfig& config) {
  auto rows = exp::RunAlgoGrid(instance, config);
  if (!rows.ok()) {
    std::fprintf(stderr, "bench run failed: %s\n",
                 rows.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*rows);
}

void PrintTable(const std::string& title, const std::vector<Row>& rows,
                int32_t platform_count) {
  std::fputs(exp::RenderTable(title, rows, platform_count).c_str(), stdout);
}

void AppendCsv(const std::string& path, const std::string& tag,
               const std::vector<Row>& rows) {
  // Best-effort, matching the old behavior: a CSV that cannot be opened is
  // skipped silently (the table already went to stdout).
  (void)exp::AppendCsvFile(path, tag, rows).ok();
}

namespace {

void ExitOnFlagError(const Flags& flags) {
  if (flags.ok()) return;
  std::fprintf(stderr, "error: %s\n", flags.status().ToString().c_str());
  std::exit(2);
}

}  // namespace

double ArgDouble(int argc, char** argv, const std::string& flag,
                 double fallback) {
  Flags flags(argc, argv);
  const double value = flags.Double(flag, fallback);
  ExitOnFlagError(flags);
  return value;
}

int64_t ArgInt(int argc, char** argv, const std::string& flag,
               int64_t fallback) {
  Flags flags(argc, argv);
  const int64_t value = flags.Int(flag, fallback);
  ExitOnFlagError(flags);
  return value;
}

}  // namespace bench
}  // namespace comx
