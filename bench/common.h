// Shared harness for the table/figure benchmark binaries. The heavy
// lifting (algorithm grid, table/CSV rendering, parallel seed execution)
// lives in the library at exp/algo_grid.h so tests can verify it; this
// header re-exports it under the historical bench:: names and keeps the
// leaf-program conveniences (die on error, argv parsing).

#ifndef COMX_BENCH_COMMON_H_
#define COMX_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "exp/algo_grid.h"
#include "model/instance.h"

namespace comx {
namespace bench {

using exp::Algo;
using exp::AlgoName;
using exp::Row;

/// Run configuration for one table (exp::AlgoGridConfig: sim, seeds,
/// off_capacity, algos, jobs, pool).
using TableRunConfig = exp::AlgoGridConfig;

/// Runs every configured algorithm over `instance`; returns one row each.
/// Dies (exit 1) on internal errors — bench binaries are leaf programs.
std::vector<Row> RunTable(const Instance& instance,
                          const TableRunConfig& config);

/// Prints rows in the Tables V-VII layout.
void PrintTable(const std::string& title, const std::vector<Row>& rows,
                int32_t platform_count);

/// Appends rows to a CSV file (creating it with a header when absent).
/// `tag` labels the sweep point (e.g. "R=2500").
void AppendCsv(const std::string& path, const std::string& tag,
               const std::vector<Row>& rows);

/// The value of `flag` (util/flags.h syntax) or `fallback`; a malformed
/// value exits 2 with an error that names the flag.
double ArgDouble(int argc, char** argv, const std::string& flag,
                 double fallback);
int64_t ArgInt(int argc, char** argv, const std::string& flag,
               int64_t fallback);

}  // namespace bench
}  // namespace comx

#endif  // COMX_BENCH_COMMON_H_
