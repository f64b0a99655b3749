// Sparse weighted bipartite graph: left vertices are requests, right
// vertices are workers (or worker service slots). This is the offline view
// of a COM instance (Section II-B of the paper): an edge (r, w) exists when
// worker w can feasibly serve request r under the time and range
// constraints, weighted by the revenue the platform would collect.

#ifndef COMX_MATCHING_BIPARTITE_GRAPH_H_
#define COMX_MATCHING_BIPARTITE_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/ids.h"
#include "util/result.h"
#include "util/status.h"

namespace comx {

/// One weighted edge between left vertex `left` and right vertex `right`.
struct BipartiteEdge {
  int32_t left = 0;
  int32_t right = 0;
  double weight = 0.0;

  bool operator==(const BipartiteEdge& o) const {
    return left == o.left && right == o.right && weight == o.weight;
  }
};

/// Edge-list bipartite graph with adjacency built on demand.
class BipartiteGraph {
 public:
  /// Creates a graph with the given vertex counts and no edges.
  BipartiteGraph(int32_t left_count, int32_t right_count);

  /// Adds an edge. Errors on out-of-range vertices or non-finite weight.
  Status AddEdge(int32_t left, int32_t right, double weight);

  /// Number of left vertices.
  int32_t left_count() const { return left_count_; }
  /// Number of right vertices.
  int32_t right_count() const { return right_count_; }
  /// All edges in insertion order.
  const std::vector<BipartiteEdge>& edges() const { return edges_; }

  /// Indices into edges() for each left vertex. Built lazily; cheap to call
  /// repeatedly after the first call until the next AddEdge.
  const std::vector<std::vector<int32_t>>& LeftAdjacency() const;

  /// Index into edges() of the edge a matcher credits for the matched pair
  /// (left, right): the best-weight one, the first in insertion order on
  /// ties. Scans `left`'s adjacency list. Errors with FailedPrecondition
  /// when the pair is not an edge (or a vertex is out of range).
  Result<int32_t> BestEdge(int32_t left, int32_t right) const;

  /// Sum of weights of a matching given as right-match-per-left
  /// (-1 = unmatched), each pair credited with its BestEdge. Errors when
  /// the matching references a non-edge or matches one right vertex twice.
  Status ValidateMatching(const std::vector<int32_t>& match_of_left,
                          double* total_weight) const;

  /// Compact description for logs.
  std::string Summary() const;

 private:
  int32_t left_count_;
  int32_t right_count_;
  std::vector<BipartiteEdge> edges_;
  mutable std::vector<std::vector<int32_t>> left_adj_;
  mutable bool adj_dirty_ = true;
};

/// Result of a bipartite matcher: match_of_left[l] = right vertex or -1.
struct BipartiteMatching {
  std::vector<int32_t> match_of_left;
  double total_weight = 0.0;
  /// Number of matched left vertices.
  int32_t size = 0;
};

}  // namespace comx

#endif  // COMX_MATCHING_BIPARTITE_GRAPH_H_
