#include "matching/bipartite_graph.h"

#include <cmath>

#include "util/string_util.h"

namespace comx {

BipartiteGraph::BipartiteGraph(int32_t left_count, int32_t right_count)
    : left_count_(left_count), right_count_(right_count) {}

Status BipartiteGraph::AddEdge(int32_t left, int32_t right, double weight) {
  if (left < 0 || left >= left_count_) {
    return Status::OutOfRange(StrFormat("left vertex %d of %d", left,
                                        left_count_));
  }
  if (right < 0 || right >= right_count_) {
    return Status::OutOfRange(StrFormat("right vertex %d of %d", right,
                                        right_count_));
  }
  if (!std::isfinite(weight)) {
    return Status::InvalidArgument("edge weight not finite");
  }
  edges_.push_back(BipartiteEdge{left, right, weight});
  adj_dirty_ = true;
  return Status::OK();
}

const std::vector<std::vector<int32_t>>& BipartiteGraph::LeftAdjacency()
    const {
  if (adj_dirty_) {
    left_adj_.assign(static_cast<size_t>(left_count_), {});
    for (int32_t i = 0; i < static_cast<int32_t>(edges_.size()); ++i) {
      left_adj_[static_cast<size_t>(edges_[i].left)].push_back(i);
    }
    adj_dirty_ = false;
  }
  return left_adj_;
}

Result<int32_t> BipartiteGraph::BestEdge(int32_t left, int32_t right) const {
  int32_t best = -1;
  if (left >= 0 && left < left_count_) {
    for (const int32_t ei : LeftAdjacency()[static_cast<size_t>(left)]) {
      const BipartiteEdge& e = edges_[static_cast<size_t>(ei)];
      if (e.right == right &&
          (best < 0 || e.weight > edges_[static_cast<size_t>(best)].weight)) {
        best = ei;
      }
    }
  }
  if (best < 0) {
    return Status::FailedPrecondition(
        StrFormat("pair (%d, %d) is not an edge", left, right));
  }
  return best;
}

Status BipartiteGraph::ValidateMatching(
    const std::vector<int32_t>& match_of_left, double* total_weight) const {
  if (static_cast<int32_t>(match_of_left.size()) != left_count_) {
    return Status::InvalidArgument("matching size != left vertex count");
  }
  std::vector<bool> right_used(static_cast<size_t>(right_count_), false);
  double total = 0.0;
  for (int32_t l = 0; l < left_count_; ++l) {
    const int32_t r = match_of_left[static_cast<size_t>(l)];
    if (r < 0) continue;
    if (r >= right_count_) {
      return Status::OutOfRange("matched right vertex out of range");
    }
    if (right_used[static_cast<size_t>(r)]) {
      return Status::FailedPrecondition(
          StrFormat("right vertex %d matched twice", r));
    }
    right_used[static_cast<size_t>(r)] = true;
    COMX_ASSIGN_OR_RETURN(const int32_t ei, BestEdge(l, r));
    total += edges_[static_cast<size_t>(ei)].weight;
  }
  if (total_weight != nullptr) *total_weight = total;
  return Status::OK();
}

std::string BipartiteGraph::Summary() const {
  return StrFormat("BipartiteGraph{L=%d, R=%d, E=%zu}", left_count_,
                   right_count_, edges_.size());
}

}  // namespace comx
