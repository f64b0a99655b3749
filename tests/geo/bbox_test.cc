#include "geo/bbox.h"

#include <gtest/gtest.h>

namespace comx {
namespace {

TEST(BBoxTest, DefaultIsEmpty) {
  BBox b;
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.Contains(Point(0, 0)));
}

TEST(BBoxTest, ExtendMakesNonEmpty) {
  BBox b;
  b.Extend(Point(1, 2));
  EXPECT_FALSE(b.empty());
  EXPECT_TRUE(b.Contains(Point(1, 2)));
  EXPECT_EQ(b.width(), 0.0);
}

TEST(BBoxTest, ExtendGrowsToCover) {
  BBox b;
  b.Extend(Point(0, 0));
  b.Extend(Point(10, -5));
  EXPECT_TRUE(b.Contains(Point(5, -2)));
  EXPECT_FALSE(b.Contains(Point(11, 0)));
  EXPECT_EQ(b.width(), 10.0);
  EXPECT_EQ(b.height(), 5.0);
}

TEST(BBoxTest, ContainsBoundary) {
  BBox b(Point(0, 0), Point(2, 2));
  EXPECT_TRUE(b.Contains(Point(0, 0)));
  EXPECT_TRUE(b.Contains(Point(2, 2)));
  EXPECT_TRUE(b.Contains(Point(0, 2)));
}

TEST(BBoxTest, Inflate) {
  BBox b(Point(0, 0), Point(1, 1));
  b.Inflate(0.5);
  EXPECT_TRUE(b.Contains(Point(-0.5, -0.5)));
  EXPECT_TRUE(b.Contains(Point(1.5, 1.5)));
  EXPECT_FALSE(b.Contains(Point(1.6, 0)));
}

TEST(BBoxTest, InflateEmptyIsNoop) {
  BBox b;
  b.Inflate(10.0);
  EXPECT_TRUE(b.empty());
}

}  // namespace
}  // namespace comx
