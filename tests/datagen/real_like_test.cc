#include "datagen/real_like.h"

#include <gtest/gtest.h>

namespace comx {
namespace {

TEST(RealLikeTest, SpecsMatchTableThree) {
  const auto rdc10 = Rdc10Ryc10();
  EXPECT_EQ(rdc10.didi_requests, 91'321);
  EXPECT_EQ(rdc10.didi_workers, 9'145);
  EXPECT_EQ(rdc10.yueche_requests, 90'589);
  EXPECT_EQ(rdc10.yueche_workers, 7'038);
  EXPECT_DOUBLE_EQ(rdc10.radius_km, 1.0);
  EXPECT_FALSE(rdc10.xian);

  const auto rdc11 = Rdc11Ryc11();
  EXPECT_EQ(rdc11.didi_requests, 100'973);
  EXPECT_EQ(rdc11.didi_workers, 11'199);

  const auto rdx11 = Rdx11Ryx11();
  EXPECT_EQ(rdx11.didi_requests, 57'611);
  EXPECT_EQ(rdx11.didi_workers, 2'441);
  EXPECT_TRUE(rdx11.xian);
}

TEST(RealLikeTest, ScaledGenerationMatchesCounts) {
  auto ins = GenerateRealLike(Rdc10Ryc10(), 0.01, 7);
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins->RequestCountOf(0), 913);
  EXPECT_EQ(ins->RequestCountOf(1), 906);
  EXPECT_EQ(ins->WorkerCountOf(0), 91);  // llround(91.45)
  EXPECT_EQ(ins->WorkerCountOf(1), 70);
  EXPECT_TRUE(ins->Validate().ok());
}

TEST(RealLikeTest, RejectsBadScale) {
  EXPECT_FALSE(GenerateRealLike(Rdc10Ryc10(), 0.0).ok());
  EXPECT_FALSE(GenerateRealLike(Rdc10Ryc10(), 1.5).ok());
  EXPECT_FALSE(GenerateRealLike(Rdc10Ryc10(), -0.3).ok());
}

TEST(RealLikeTest, XianImbalanceIsSteeper) {
  // Xi'an: ~25 requests per worker; Chengdu: ~10. The generated instances
  // preserve these supply ratios.
  auto chengdu = GenerateRealLike(Rdc10Ryc10(), 0.01, 7);
  auto xian = GenerateRealLike(Rdx11Ryx11(), 0.01, 7);
  ASSERT_TRUE(chengdu.ok());
  ASSERT_TRUE(xian.ok());
  const double chengdu_ratio =
      static_cast<double>(chengdu->requests().size()) /
      static_cast<double>(chengdu->workers().size());
  const double xian_ratio = static_cast<double>(xian->requests().size()) /
                            static_cast<double>(xian->workers().size());
  EXPECT_GT(xian_ratio, 1.8 * chengdu_ratio);
}

TEST(RealLikeTest, TinyScaleStillProducesAtLeastOneEach) {
  auto ins = GenerateRealLike(Rdx11Ryx11(), 1e-6, 7);
  ASSERT_TRUE(ins.ok());
  EXPECT_GE(ins->RequestCountOf(0), 1);
  EXPECT_GE(ins->WorkerCountOf(0), 1);
}

TEST(RealLikeTest, DeterministicGivenSeed) {
  auto a = GenerateRealLike(Rdc10Ryc10(), 0.005, 3);
  auto b = GenerateRealLike(Rdc10Ryc10(), 0.005, 3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->workers()[0].location, b->workers()[0].location);
  EXPECT_EQ(a->requests()[5].value, b->requests()[5].value);
}

}  // namespace
}  // namespace comx
