#include "core/matcher_factory.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace comx {
namespace {

TEST(MatcherFactoryTest, EveryNameBuildsItsMatcher) {
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"tota", "TOTA"},         {"ranking", "RANKING"},
      {"greedyrt", "Greedy-RT"}, {"demcom", "DemCOM"},
      {"ramcom", "RamCOM"},     {"costdem", "CostDemCOM"},
      {"batch", "WindowGreedy"}};
  for (const auto& [flag, name] : expected) {
    const std::unique_ptr<OnlineMatcher> matcher = MakeMatcherByName(flag);
    ASSERT_NE(matcher, nullptr) << flag;
    EXPECT_EQ(matcher->name(), name) << flag;
  }
}

TEST(MatcherFactoryTest, UnknownNameIsRefused) {
  for (const char* name : {"", "off", "DemCOM", "demcom ", "auction"}) {
    EXPECT_EQ(MakeMatcherByName(name), nullptr) << "'" << name << "'";
  }
}

}  // namespace
}  // namespace comx
