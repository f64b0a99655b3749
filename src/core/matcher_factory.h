// The online matchers the command-line tools select with --algo.

#ifndef COMX_CORE_MATCHER_FACTORY_H_
#define COMX_CORE_MATCHER_FACTORY_H_

#include <memory>
#include <string_view>

#include "core/online_matcher.h"

namespace comx {

/// Builds a fresh matcher for `name`: tota, ranking, greedyrt, demcom,
/// ramcom, costdem or batch. Returns nullptr for any other name.
std::unique_ptr<OnlineMatcher> MakeMatcherByName(std::string_view name);

}  // namespace comx

#endif  // COMX_CORE_MATCHER_FACTORY_H_
