// Minimal CSV reading/writing used by dataset persistence and the benchmark
// harness output. Supports quoting of fields containing separators, quotes,
// or newlines; no embedded-newline parsing on the read path (datasets are one
// record per line).

#ifndef COMX_UTIL_CSV_H_
#define COMX_UTIL_CSV_H_

#include <fstream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace comx {

/// Streams rows of fields to an ostream in RFC-4180-ish CSV.
class CsvWriter {
 public:
  /// Writes to an externally owned stream.
  explicit CsvWriter(std::ostream* out) : out_(out) {}

  /// Writes one row; each field is quoted when needed.
  void WriteRow(const std::vector<std::string>& fields);

  /// Convenience: writes a row of doubles with full precision.
  void WriteNumericRow(const std::vector<double>& values);

 private:
  std::ostream* out_;
};

/// Parses one CSV line into fields, honoring double quotes. Errors on a
/// quote left open at end of line instead of silently swallowing the rest
/// of the record.
Result<std::vector<std::string>> ParseCsvLineStrict(std::string_view line);

/// Reads a whole CSV file into rows of fields. Skips empty lines. Rows are
/// parsed strictly — a malformed line fails the whole read with its
/// 1-based line number rather than producing a garbage row.
Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path);

/// Writes rows to a file, creating/truncating it.
Status WriteCsvFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows);

}  // namespace comx

#endif  // COMX_UTIL_CSV_H_
