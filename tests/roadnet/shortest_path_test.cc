#include "roadnet/shortest_path.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "roadnet/road_generator.h"
#include "util/rng.h"

namespace comx {
namespace {

RoadGraph Square() {
  RoadGraph g;
  g.AddNode(Point(0, 1));
  g.AddNode(Point(1, 1));
  g.AddNode(Point(0, 0));
  g.AddNode(Point(1, 0));
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.AddEdge(0, 2).ok());
  EXPECT_TRUE(g.AddEdge(1, 3).ok());
  EXPECT_TRUE(g.AddEdge(2, 3).ok());
  return g;
}

// Floyd–Warshall reference on small graphs.
std::vector<std::vector<double>> AllPairsReference(const RoadGraph& g) {
  const size_t n = static_cast<size_t>(g.node_count());
  std::vector<std::vector<double>> d(n, std::vector<double>(n, kUnreachable));
  for (size_t i = 0; i < n; ++i) {
    d[i][i] = 0.0;
    for (const RoadArc& arc : g.ArcsFrom(static_cast<NodeId>(i))) {
      d[i][static_cast<size_t>(arc.to)] =
          std::min(d[i][static_cast<size_t>(arc.to)], arc.length_km);
    }
  }
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

TEST(ShortestPathTest, SquareDistances) {
  const RoadGraph g = Square();
  EXPECT_DOUBLE_EQ(ShortestPathKm(g, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(ShortestPathKm(g, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(ShortestPathKm(g, 0, 3), 2.0);  // around the square
}

TEST(ShortestPathTest, UnreachableReportsInfinity) {
  RoadGraph g = Square();
  const NodeId island = g.AddNode(Point(50, 50));
  EXPECT_EQ(ShortestPathKm(g, 0, island), kUnreachable);
  EXPECT_EQ(AStarKm(g, 0, island), kUnreachable);
  EXPECT_TRUE(ShortestPathNodes(g, 0, island).empty());
}

TEST(ShortestPathTest, PathNodesReconstruct) {
  const RoadGraph g = Square();
  const auto path = ShortestPathNodes(g, 0, 3);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 3);
  EXPECT_TRUE(path[1] == 1 || path[1] == 2);
}

class ShortestPathRandomTest : public testing::TestWithParam<int> {};

TEST_P(ShortestPathRandomTest, DijkstraAStarAndFloydAgree) {
  RoadGridConfig config;
  config.rows = 6;
  config.cols = 6;
  config.seed = static_cast<uint64_t>(GetParam());
  config.closure_fraction = 0.2;
  auto g = GenerateGridCity(config);
  ASSERT_TRUE(g.ok());
  const auto reference = AllPairsReference(*g);
  Rng rng(static_cast<uint64_t>(GetParam()) + 99);
  for (int q = 0; q < 40; ++q) {
    const auto s = static_cast<NodeId>(rng.PickIndex(
        static_cast<size_t>(g->node_count())));
    const auto t = static_cast<NodeId>(rng.PickIndex(
        static_cast<size_t>(g->node_count())));
    const double ref = reference[static_cast<size_t>(s)][static_cast<size_t>(t)];
    EXPECT_NEAR(ShortestPathKm(*g, s, t), ref, 1e-9);
    EXPECT_NEAR(AStarKm(*g, s, t), ref, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShortestPathRandomTest, testing::Range(0, 6));

TEST(ShortestPathTest, PathLengthMatchesReportedDistance) {
  RoadGridConfig config;
  config.rows = 8;
  config.cols = 8;
  config.seed = 3;
  auto g = GenerateGridCity(config);
  ASSERT_TRUE(g.ok());
  const NodeId s = 0, t = g->node_count() - 1;
  const auto path = ShortestPathNodes(*g, s, t);
  ASSERT_GE(path.size(), 2u);
  double total = 0.0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    double leg = kUnreachable;
    for (const RoadArc& arc : g->ArcsFrom(path[i])) {
      if (arc.to == path[i + 1]) leg = std::min(leg, arc.length_km);
    }
    ASSERT_NE(leg, kUnreachable);
    total += leg;
  }
  EXPECT_NEAR(total, ShortestPathKm(*g, s, t), 1e-9);
}

}  // namespace
}  // namespace comx
