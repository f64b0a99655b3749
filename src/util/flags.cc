#include "util/flags.h"

#include <cmath>
#include <string>

#include "util/string_util.h"

namespace comx {

bool Flags::Has(std::string_view name) const {
  for (int i = first_; i < argc_; ++i) {
    if (name == argv_[i]) return true;
  }
  return false;
}

const char* Flags::Get(std::string_view name, const char* fallback) {
  for (int i = first_; i < argc_; ++i) {
    const std::string_view arg = argv_[i];
    if (arg == name) {
      if (i + 1 < argc_) return argv_[i + 1];
      RecordError(name, Status::InvalidArgument("missing value"));
      return fallback;
    }
    if (arg.size() > name.size() && arg.substr(0, name.size()) == name &&
        arg[name.size()] == '=') {
      return argv_[i] + name.size() + 1;
    }
  }
  return fallback;
}

template <typename T>
T Flags::Number(std::string_view name, T fallback,
                Result<T> (*parse)(std::string_view)) {
  const char* value = Get(name);
  if (value == nullptr) return fallback;
  Result<T> parsed = parse(value);
  if (!parsed.ok()) {
    RecordError(name, parsed.status());
    return fallback;
  }
  return *parsed;
}

int64_t Flags::IntInRange(std::string_view name, int64_t fallback,
                          int64_t min, int64_t max) {
  const int64_t value = Number(name, fallback, &ParseInt64);
  if (value < min || value > max) {
    RecordError(name, Status::OutOfRange(StrFormat(
                          "%lld is outside [%lld, %lld]",
                          static_cast<long long>(value),
                          static_cast<long long>(min),
                          static_cast<long long>(max))));
    return fallback;
  }
  return value;
}

uint64_t Flags::Uint64(std::string_view name, uint64_t fallback) {
  return Number(name, fallback, &ParseUint64);
}

double Flags::Double(std::string_view name, double fallback) {
  return Number<double>(
      name, fallback, [](std::string_view text) -> Result<double> {
        COMX_ASSIGN_OR_RETURN(const double value, ParseDouble(text));
        if (!std::isfinite(value)) {
          return Status::OutOfRange("not finite: '" + std::string(text) +
                                    "'");
        }
        return value;
      });
}

void Flags::RecordError(std::string_view name, const Status& cause) {
  if (!status_.ok()) return;
  status_ = Status(cause.code(), std::string(name) + ": " + cause.message());
}

}  // namespace comx
