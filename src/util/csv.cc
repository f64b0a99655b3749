#include "util/csv.h"

#include <cstdio>
#include <sstream>

#include "util/string_util.h"

namespace comx {
namespace {

bool NeedsQuoting(std::string_view field) {
  return field.find_first_of(",\"\n\r") != std::string_view::npos;
}

std::string QuoteField(std::string_view field) {
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i) *out_ << ',';
    if (NeedsQuoting(fields[i])) {
      *out_ << QuoteField(fields[i]);
    } else {
      *out_ << fields[i];
    }
  }
  *out_ << '\n';
}

void CsvWriter::WriteNumericRow(const std::vector<double>& values) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) *out_ << ',';
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
    *out_ << buf;
  }
  *out_ << '\n';
}

Result<std::vector<std::string>> ParseCsvLineStrict(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // Ignore CR from CRLF files.
    } else {
      current.push_back(c);
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quote in CSV line");
  }
  fields.push_back(std::move(current));
  return fields;
}

Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    auto fields = ParseCsvLineStrict(line);
    if (!fields.ok()) {
      return Status::InvalidArgument(StrFormat(
          "%s line %lld: %s", path.c_str(),
          static_cast<long long>(line_number),
          fields.status().message().c_str()));
    }
    rows.push_back(*std::move(fields));
  }
  return rows;
}

Status WriteCsvFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  CsvWriter writer(&out);
  for (const auto& row : rows) writer.WriteRow(row);
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace comx
