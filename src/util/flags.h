// Command-line flags shared by the tools and benchmark binaries.
//
// A flag is written `--name value` or `--name=value`; a switch is a bare
// `--name`. Numeric values parse strictly: trailing garbage ("2O0"), words
// ("seven"), a decimal comma ("1,5"), an empty value and numbers outside the
// range of the type the program stores them in are errors, never a silent 0,
// a truncated prefix or a wrapped value.
//
// A program reads every flag it uses first, then checks status() once
// before it acts: a getter that meets a malformed or missing value records
// the first such error (it names the flag) and returns its fallback.

#ifndef COMX_UTIL_FLAGS_H_
#define COMX_UTIL_FLAGS_H_

#include <cstdint>
#include <limits>
#include <string_view>
#include <type_traits>

#include "util/result.h"
#include "util/status.h"

namespace comx {

class Flags {
 public:
  /// Reads argv[first, argc): `first` = 1 skips the program name, 2 also a
  /// subcommand. `argv` must outlive this object.
  Flags(int argc, char** argv, int first = 1)
      : argc_(argc), argv_(argv), first_(first) {}

  /// True when the switch `name` appears as a bare argument.
  bool Has(std::string_view name) const;

  /// The value of flag `name`, or `fallback` when the flag is absent. A
  /// flag that ends argv has no value: that is an error, and `fallback`.
  const char* Get(std::string_view name, const char* fallback = nullptr);

  /// Numeric values; `fallback` when the flag is absent or on an error.
  /// Int<T> also rejects a value outside T's range (for 64-bit unsigned T,
  /// outside [0, INT64_MAX]); Uint64 takes the full seed range.
  template <typename T = int64_t>
  T Int(std::string_view name, std::type_identity_t<T> fallback) {
    static_assert(std::is_integral_v<T> && sizeof(T) <= sizeof(int64_t));
    constexpr int64_t kMin =
        std::is_signed_v<T> ? int64_t{std::numeric_limits<T>::min()} : 0;
    constexpr int64_t kMax =
        std::numeric_limits<T>::max() >
                uint64_t{std::numeric_limits<int64_t>::max()}
            ? std::numeric_limits<int64_t>::max()
            : static_cast<int64_t>(std::numeric_limits<T>::max());
    return static_cast<T>(
        IntInRange(name, static_cast<int64_t>(fallback), kMin, kMax));
  }
  uint64_t Uint64(std::string_view name, uint64_t fallback);
  /// Finite doubles only: "inf" and "nan" are errors too.
  double Double(std::string_view name, double fallback);

  /// OK, or the first error a getter met.
  const Status& status() const { return status_; }
  bool ok() const { return status_.ok(); }

 private:
  template <typename T>
  T Number(std::string_view name, T fallback,
           Result<T> (*parse)(std::string_view));
  int64_t IntInRange(std::string_view name, int64_t fallback, int64_t min,
                     int64_t max);
  void RecordError(std::string_view name, const Status& cause);

  int argc_;
  char** argv_;
  int first_;
  Status status_;
};

}  // namespace comx

#endif  // COMX_UTIL_FLAGS_H_
