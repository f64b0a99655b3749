#include "geo/grid_index.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "geo/distance.h"
#include "util/rng.h"

namespace comx {
namespace {

TEST(GridIndexTest, InsertContainsRemove) {
  GridIndex idx(1.0);
  EXPECT_TRUE(idx.Insert(1, Point(0.5, 0.5)).ok());
  EXPECT_TRUE(idx.Contains(1));
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_TRUE(idx.Remove(1).ok());
  EXPECT_FALSE(idx.Contains(1));
  EXPECT_TRUE(idx.empty());
}

TEST(GridIndexTest, DuplicateInsertFails) {
  GridIndex idx(1.0);
  ASSERT_TRUE(idx.Insert(1, Point(0, 0)).ok());
  const Status s = idx.Insert(1, Point(5, 5));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(idx.size(), 1u);
}

TEST(GridIndexTest, RemoveMissingFails) {
  GridIndex idx(1.0);
  EXPECT_EQ(idx.Remove(42).code(), StatusCode::kNotFound);
}

TEST(GridIndexTest, RadiusQueryInclusiveBoundary) {
  GridIndex idx(1.0);
  ASSERT_TRUE(idx.Insert(1, Point(3, 4)).ok());  // distance 5 from origin
  EXPECT_EQ(idx.QueryRadius(Point(0, 0), 5.0).size(), 1u);
  EXPECT_EQ(idx.QueryRadius(Point(0, 0), 4.999).size(), 0u);
}

TEST(GridIndexTest, NegativeCoordinates) {
  GridIndex idx(1.0);
  ASSERT_TRUE(idx.Insert(1, Point(-2.5, -3.5)).ok());
  ASSERT_TRUE(idx.Insert(2, Point(-2.4, -3.4)).ok());
  EXPECT_EQ(idx.QueryRadius(Point(-2.45, -3.45), 0.2).size(), 2u);
}

TEST(GridIndexTest, FourQuadrantsThroughPackCell) {
  // Negative cell coordinates exercise PackCell's int32 -> uint32 packing:
  // a sign-extension bug would alias cells across quadrants, so place one
  // point per quadrant in distinct cells and check insert/lookup/remove
  // round-trips per quadrant.
  GridIndex idx(1.0);
  const std::vector<Point> quadrants = {
      Point(2.5, 3.5), Point(-2.5, 3.5), Point(-2.5, -3.5), Point(2.5, -3.5)};
  for (size_t i = 0; i < quadrants.size(); ++i) {
    ASSERT_TRUE(idx.Insert(static_cast<int64_t>(i), quadrants[i]).ok());
  }
  for (size_t i = 0; i < quadrants.size(); ++i) {
    const auto hits =
        idx.QueryRadius(quadrants[i], 0.1);  // well inside one cell
    ASSERT_EQ(hits.size(), 1u) << "quadrant " << i;
    EXPECT_EQ(hits[0], static_cast<int64_t>(i));
  }
  // Remove from each quadrant; each removal must only affect its own cell.
  for (size_t i = 0; i < quadrants.size(); ++i) {
    ASSERT_TRUE(idx.Remove(static_cast<int64_t>(i)).ok());
    for (size_t j = i + 1; j < quadrants.size(); ++j) {
      EXPECT_TRUE(idx.Contains(static_cast<int64_t>(j)));
    }
  }
  EXPECT_TRUE(idx.empty());
}

TEST(GridIndexTest, RadiusQuerySpanningOrigin) {
  // A probe circle crossing all four quadrants walks cells with mixed-sign
  // coordinates; every in-range point must be found exactly once.
  GridIndex idx(1.0);
  ASSERT_TRUE(idx.Insert(1, Point(0.4, 0.4)).ok());
  ASSERT_TRUE(idx.Insert(2, Point(-0.4, 0.4)).ok());
  ASSERT_TRUE(idx.Insert(3, Point(-0.4, -0.4)).ok());
  ASSERT_TRUE(idx.Insert(4, Point(0.4, -0.4)).ok());
  ASSERT_TRUE(idx.Insert(5, Point(3.0, 3.0)).ok());  // out of range
  auto hits = idx.QueryRadius(Point(0, 0), 1.0);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<int64_t>{1, 2, 3, 4}));
}

TEST(GridIndexTest, ZeroRadiusFindsExactPoint) {
  GridIndex idx(1.0);
  ASSERT_TRUE(idx.Insert(1, Point(1, 1)).ok());
  EXPECT_EQ(idx.QueryRadius(Point(1, 1), 0.0).size(), 1u);
}

TEST(GridIndexTest, NegativeRadiusFindsNothing) {
  GridIndex idx(1.0);
  ASSERT_TRUE(idx.Insert(1, Point(1, 1)).ok());
  EXPECT_TRUE(idx.QueryRadius(Point(1, 1), -1.0).empty());
}

TEST(GridIndexTest, ForEachInRadiusReportsSquaredDistance) {
  GridIndex idx(1.0);
  ASSERT_TRUE(idx.Insert(1, Point(3, 4)).ok());
  size_t hits = idx.ForEachInRadius(Point(0, 0), 6.0,
                                    [](int64_t id, double d2) {
                                      EXPECT_EQ(id, 1);
                                      EXPECT_DOUBLE_EQ(d2, 25.0);
                                    });
  EXPECT_EQ(hits, 1u);
}

TEST(GridIndexTest, ClearEmptiesEverything) {
  GridIndex idx(1.0);
  ASSERT_TRUE(idx.Insert(1, Point(0, 0)).ok());
  ASSERT_TRUE(idx.Insert(2, Point(5, 5)).ok());
  idx.Clear();
  EXPECT_TRUE(idx.empty());
  EXPECT_TRUE(idx.QueryRadius(Point(0, 0), 100.0).empty());
  // Reinsertion after clear works.
  EXPECT_TRUE(idx.Insert(1, Point(0, 0)).ok());
}

// Randomized cross-check against brute force, over several cell sizes.
class GridIndexRandomTest : public testing::TestWithParam<double> {};

TEST_P(GridIndexRandomTest, MatchesBruteForce) {
  const double cell = GetParam();
  GridIndex idx(cell);
  Rng rng(321);
  std::vector<Point> points;
  for (int64_t i = 0; i < 500; ++i) {
    const Point p(rng.Uniform(-20, 20), rng.Uniform(-20, 20));
    points.push_back(p);
    ASSERT_TRUE(idx.Insert(i, p).ok());
  }
  for (int q = 0; q < 50; ++q) {
    const Point c(rng.Uniform(-22, 22), rng.Uniform(-22, 22));
    const double radius = rng.Uniform(0.0, 8.0);
    std::set<int64_t> expected;
    for (int64_t i = 0; i < 500; ++i) {
      if (WithinRadius(c, points[static_cast<size_t>(i)], radius)) {
        expected.insert(i);
      }
    }
    const auto got_vec = idx.QueryRadius(c, radius);
    const std::set<int64_t> got(got_vec.begin(), got_vec.end());
    EXPECT_EQ(got, expected) << "cell=" << cell << " q=" << q;
    EXPECT_EQ(got_vec.size(), got.size()) << "duplicates returned";
  }
}

INSTANTIATE_TEST_SUITE_P(CellSizes, GridIndexRandomTest,
                         testing::Values(0.25, 0.5, 1.0, 2.0, 5.0));

TEST(GridIndexTest, RemoveHalfThenQueriesStayCorrect) {
  GridIndex idx(1.0);
  Rng rng(99);
  std::vector<Point> points;
  for (int64_t i = 0; i < 200; ++i) {
    const Point p(rng.Uniform(-10, 10), rng.Uniform(-10, 10));
    points.push_back(p);
    ASSERT_TRUE(idx.Insert(i, p).ok());
  }
  for (int64_t i = 0; i < 200; i += 2) ASSERT_TRUE(idx.Remove(i).ok());
  EXPECT_EQ(idx.size(), 100u);
  const auto hits = idx.QueryRadius(Point(0, 0), 30.0);  // covers all
  EXPECT_EQ(hits.size(), 100u);
  for (int64_t id : hits) EXPECT_EQ(id % 2, 1) << "removed id returned";
}

}  // namespace
}  // namespace comx
