#include "util/flags.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace comx {
namespace {

// Owns the argv strings a Flags object points into.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    for (std::string& a : args_) ptrs_.push_back(a.data());
  }
  int argc() { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

TEST(FlagsTest, BothSpellingsParse) {
  Argv args({"prog", "--requests", "200", "--radius=1.5", "--seed=7"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.Int("--requests", 0), 200);
  EXPECT_EQ(flags.Double("--radius", 0.0), 1.5);
  EXPECT_EQ(flags.Uint64("--seed", 0), 7u);
  EXPECT_STREQ(flags.Get("--radius"), "1.5");
  EXPECT_TRUE(flags.ok());
}

TEST(FlagsTest, AbsentFlagTakesFallback) {
  Argv args({"prog", "--requests", "200"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.Int("--workers", 250), 250);
  EXPECT_EQ(flags.Double("--radius", 1.0), 1.0);
  EXPECT_EQ(flags.Get("--out"), nullptr);
  EXPECT_FALSE(flags.Has("--smoke"));
  EXPECT_TRUE(flags.ok());
}

TEST(FlagsTest, PrefixOfAnotherFlagDoesNotMatch) {
  Argv args({"prog", "--seeds=4", "--seed-file", "x"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.Int("--seed", 1), 1);
  EXPECT_EQ(flags.Int("--seeds", 1), 4);
  EXPECT_TRUE(flags.ok());
}

TEST(FlagsTest, FirstSkipsTheSubcommand) {
  Argv args({"comx_cli", "--smoke", "--requests", "5"});
  Flags flags(args.argc(), args.argv(), /*first=*/2);
  EXPECT_FALSE(flags.Has("--smoke"));
  EXPECT_EQ(flags.Int("--requests", 0), 5);
}

TEST(FlagsTest, SwitchIsBareArgument) {
  Argv args({"prog", "--smoke", "--out", "x"});
  Flags flags(args.argc(), args.argv());
  EXPECT_TRUE(flags.Has("--smoke"));
  EXPECT_FALSE(flags.Has("--quiet"));
}

// Each malformed value is an error naming the flag, and the getter falls
// back instead of keeping a parsed prefix.
void ExpectIntRejected(const std::string& value) {
  Argv args({"prog", "--requests", value});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.Int("--requests", 1250), 1250) << value;
  ASSERT_FALSE(flags.ok()) << value;
  EXPECT_NE(flags.status().message().find("--requests"), std::string::npos)
      << flags.status().ToString();
}

TEST(FlagsTest, RejectsTrailingGarbage) { ExpectIntRejected("2O0"); }

TEST(FlagsTest, RejectsWords) {
  ExpectIntRejected("seven");
  Argv args({"prog", "--seed", "seven"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.Uint64("--seed", 2020), 2020u);
  EXPECT_FALSE(flags.ok());
}

TEST(FlagsTest, RejectsDecimalComma) {
  Argv args({"prog", "--radius", "1,5"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.Double("--radius", 1.0), 1.0);
  ASSERT_FALSE(flags.ok());
  EXPECT_NE(flags.status().message().find("--radius"), std::string::npos);
}

TEST(FlagsTest, RejectsEmptyValue) {
  ExpectIntRejected("");
  Argv args({"prog", "--radius="});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.Double("--radius", 1.0), 1.0);
  EXPECT_FALSE(flags.ok());
}

TEST(FlagsTest, RejectsOverflow) {
  ExpectIntRejected("9223372036854775808");  // INT64_MAX + 1
  ExpectIntRejected("-9223372036854775809");
  Argv args({"prog", "--seed", "18446744073709551616", "--minus", "-1",
             "--radius", "1e999", "--nan", "nan"});
  Flags seed(args.argc(), args.argv());
  EXPECT_EQ(seed.Uint64("--seed", 3), 3u);  // 2^64
  EXPECT_FALSE(seed.ok());
  Flags minus(args.argc(), args.argv());
  EXPECT_EQ(minus.Uint64("--minus", 3), 3u);
  EXPECT_FALSE(minus.ok());
  Flags radius(args.argc(), args.argv());
  EXPECT_EQ(radius.Double("--radius", 1.0), 1.0);
  EXPECT_FALSE(radius.ok());
  Flags nan(args.argc(), args.argv());
  EXPECT_EQ(nan.Double("--nan", 1.0), 1.0);
  EXPECT_FALSE(nan.ok());
}

TEST(FlagsTest, RejectsValuesOutsideTheStoredType) {
  Argv args({"prog", "--platforms", "4294967298", "--port", "70000",
             "--threads", "-1", "--shards", "2147483647"});
  Flags platforms(args.argc(), args.argv());
  EXPECT_EQ(platforms.Int<int32_t>("--platforms", 2), 2);  // not 2 by wrap
  ASSERT_FALSE(platforms.ok());
  EXPECT_NE(platforms.status().message().find("--platforms"),
            std::string::npos);
  Flags port(args.argc(), args.argv());
  EXPECT_EQ(port.Int<uint16_t>("--port", 7533), 7533);
  EXPECT_FALSE(port.ok());
  Flags threads(args.argc(), args.argv());
  EXPECT_EQ(threads.Int<size_t>("--threads", 0), 0u);
  EXPECT_FALSE(threads.ok());
  Flags shards(args.argc(), args.argv());
  EXPECT_EQ(shards.Int<int32_t>("--shards", 4), 2147483647);
  EXPECT_TRUE(shards.ok());
}

TEST(FlagsTest, AcceptsTypeExtremes) {
  Argv args({"prog", "--a", "-9223372036854775808", "--b",
             "18446744073709551615"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.Int("--a", 0), INT64_MIN);
  EXPECT_EQ(flags.Uint64("--b", 0), UINT64_MAX);
  EXPECT_TRUE(flags.ok());
}

TEST(FlagsTest, FlagAsLastArgumentIsMissingValue) {
  Argv args({"prog", "--out", "x", "--port"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.Int("--port", 7533), 7533);
  ASSERT_FALSE(flags.ok());
  EXPECT_NE(flags.status().message().find("--port"), std::string::npos);
  EXPECT_NE(flags.status().message().find("missing value"),
            std::string::npos);
}

TEST(FlagsTest, KeepsTheFirstError) {
  Argv args({"prog", "--requests", "2O0", "--workers", "x"});
  Flags flags(args.argc(), args.argv());
  flags.Int("--requests", 0);
  flags.Int("--workers", 0);
  ASSERT_FALSE(flags.ok());
  EXPECT_NE(flags.status().message().find("--requests"), std::string::npos);
  EXPECT_EQ(flags.status().message().find("--workers"), std::string::npos);
}

// The argument list the benchmark harness passes to comx_serve.
TEST(FlagsTest, ServeBenchmarkArgumentsParse) {
  Argv args({"comx_serve", "--port", "0", "--shards", "1", "--threads", "1",
             "--algo", "demcom", "--requests", "40000", "--workers", "8000",
             "--gen-seed", "2020", "--seed", "2020"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.Int<uint16_t>("--port", 7533), 0);
  EXPECT_EQ(flags.Int<int32_t>("--shards", 4), 1);
  EXPECT_EQ(flags.Int<size_t>("--threads", 0), 1u);
  EXPECT_STREQ(flags.Get("--algo"), "demcom");
  EXPECT_EQ(flags.Int("--requests", 1250), 40000);
  EXPECT_EQ(flags.Int("--workers", 250), 8000);
  EXPECT_EQ(flags.Uint64("--gen-seed", 0), 2020u);
  EXPECT_EQ(flags.Uint64("--seed", 1), 2020u);
  EXPECT_FALSE(flags.Has("--replay"));
  EXPECT_TRUE(flags.ok());
}

}  // namespace
}  // namespace comx
