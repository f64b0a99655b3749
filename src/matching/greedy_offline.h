// Sorted-edge greedy matching: a fast 1/2-approximation for maximum-weight
// bipartite matching. Its one production caller is the micro-batch
// dispatcher's greedy window solver (BatchAlgo::kGreedy, see
// matching/batch_matcher.h).

#ifndef COMX_MATCHING_GREEDY_OFFLINE_H_
#define COMX_MATCHING_GREEDY_OFFLINE_H_

#include "matching/bipartite_graph.h"

namespace comx {

/// Greedy matching over edges sorted by descending weight (stable, so ties
/// keep edge insertion order); every vertex is matched at most once and
/// non-positive edges are never taken.
///
/// Guarantee: total weight >= 1/2 of the optimum (standard greedy bound).
BipartiteMatching GreedyMaxWeight(const BipartiteGraph& graph);

}  // namespace comx

#endif  // COMX_MATCHING_GREEDY_OFFLINE_H_
