#include "matching/bipartite_graph.h"

#include <cmath>

#include <gtest/gtest.h>

namespace comx {
namespace {

TEST(BipartiteGraphTest, StartsEmpty) {
  BipartiteGraph g(3, 4);
  EXPECT_EQ(g.left_count(), 3);
  EXPECT_EQ(g.right_count(), 4);
  EXPECT_TRUE(g.edges().empty());
}

TEST(BipartiteGraphTest, AddEdgeValidatesRange) {
  BipartiteGraph g(2, 2);
  EXPECT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  EXPECT_EQ(g.AddEdge(2, 0, 1.0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.AddEdge(-1, 0, 1.0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.AddEdge(0, 2, 1.0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.AddEdge(0, 0, std::nan("")).code(),
            StatusCode::kInvalidArgument);
}

TEST(BipartiteGraphTest, LeftAdjacencyGroupsEdges) {
  BipartiteGraph g(3, 3);
  ASSERT_TRUE(g.AddEdge(0, 0, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 1, 2.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 2, 3.0).ok());
  const auto& adj = g.LeftAdjacency();
  ASSERT_EQ(adj.size(), 3u);
  EXPECT_EQ(adj[0].size(), 2u);
  EXPECT_TRUE(adj[1].empty());
  EXPECT_EQ(adj[2].size(), 1u);
  // Lazy rebuild after more edges.
  ASSERT_TRUE(g.AddEdge(1, 0, 4.0).ok());
  EXPECT_EQ(g.LeftAdjacency()[1].size(), 1u);
}

TEST(BipartiteGraphTest, ValidateMatchingComputesWeight) {
  BipartiteGraph g(2, 2);
  ASSERT_TRUE(g.AddEdge(0, 0, 3.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 1, 4.0).ok());
  double total = 0.0;
  EXPECT_TRUE(g.ValidateMatching({0, 1}, &total).ok());
  EXPECT_DOUBLE_EQ(total, 7.0);
}

TEST(BipartiteGraphTest, ValidateMatchingAllowsUnmatched) {
  BipartiteGraph g(2, 2);
  ASSERT_TRUE(g.AddEdge(0, 0, 3.0).ok());
  double total = 0.0;
  EXPECT_TRUE(g.ValidateMatching({0, -1}, &total).ok());
  EXPECT_DOUBLE_EQ(total, 3.0);
}

TEST(BipartiteGraphTest, ValidateMatchingRejectsNonEdge) {
  BipartiteGraph g(2, 2);
  ASSERT_TRUE(g.AddEdge(0, 0, 3.0).ok());
  EXPECT_EQ(g.ValidateMatching({1, -1}, nullptr).code(),
            StatusCode::kFailedPrecondition);
}

TEST(BipartiteGraphTest, ValidateMatchingRejectsDoubleUse) {
  BipartiteGraph g(2, 1);
  ASSERT_TRUE(g.AddEdge(0, 0, 3.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 0, 2.0).ok());
  EXPECT_EQ(g.ValidateMatching({0, 0}, nullptr).code(),
            StatusCode::kFailedPrecondition);
}

TEST(BipartiteGraphTest, ValidateMatchingWrongSize) {
  BipartiteGraph g(2, 2);
  EXPECT_EQ(g.ValidateMatching({-1}, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(BipartiteGraphTest, ParallelEdgesUseMaxWeight) {
  BipartiteGraph g(1, 1);
  ASSERT_TRUE(g.AddEdge(0, 0, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 0, 5.0).ok());
  double total = 0.0;
  EXPECT_TRUE(g.ValidateMatching({0}, &total).ok());
  EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(BipartiteGraphTest, BestEdgePicksHeaviestFirstOnTies) {
  BipartiteGraph g(2, 2);
  ASSERT_TRUE(g.AddEdge(0, 1, 2.0).ok());  // edge 0
  ASSERT_TRUE(g.AddEdge(0, 0, 4.0).ok());  // edge 1
  ASSERT_TRUE(g.AddEdge(0, 1, 7.0).ok());  // edge 2
  ASSERT_TRUE(g.AddEdge(1, 1, 3.0).ok());  // edge 3
  ASSERT_TRUE(g.AddEdge(0, 1, 7.0).ok());  // edge 4: ties edge 2
  ASSERT_TRUE(g.AddEdge(1, 1, 3.0).ok());  // edge 5: ties edge 3
  EXPECT_EQ(*g.BestEdge(0, 1), 2);
  EXPECT_EQ(*g.BestEdge(0, 0), 1);
  EXPECT_EQ(*g.BestEdge(1, 1), 3);
}

TEST(BipartiteGraphTest, BestEdgeRejectsNonEdges) {
  BipartiteGraph g(2, 2);
  ASSERT_TRUE(g.AddEdge(0, 0, 1.0).ok());
  EXPECT_EQ(g.BestEdge(1, 0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(g.BestEdge(0, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(g.BestEdge(-1, 0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(g.BestEdge(2, 0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BipartiteGraphTest, SummaryFormat) {
  BipartiteGraph g(2, 3);
  ASSERT_TRUE(g.AddEdge(0, 0, 1.0).ok());
  EXPECT_EQ(g.Summary(), "BipartiteGraph{L=2, R=3, E=1}");
}

}  // namespace
}  // namespace comx
