// Point-to-point shortest-path queries over a RoadGraph: Dijkstra, A* and
// path reconstruction.

#ifndef COMX_ROADNET_SHORTEST_PATH_H_
#define COMX_ROADNET_SHORTEST_PATH_H_

#include <limits>
#include <vector>

#include "roadnet/road_graph.h"

namespace comx {

/// Sentinel distance for unreachable nodes.
inline constexpr double kUnreachable =
    std::numeric_limits<double>::infinity();

/// Shortest network distance from `source` to `target` in km; kUnreachable
/// when disconnected. Plain Dijkstra with early exit at the target.
double ShortestPathKm(const RoadGraph& graph, NodeId source, NodeId target);

/// A* with the Euclidean heuristic (admissible because every edge is at
/// least as long as its Euclidean span). Identical results to Dijkstra,
/// fewer settled nodes on spread-out targets.
double AStarKm(const RoadGraph& graph, NodeId source, NodeId target);

/// Shortest path as a node sequence (source first, target last); empty
/// when unreachable.
std::vector<NodeId> ShortestPathNodes(const RoadGraph& graph, NodeId source,
                                      NodeId target);

}  // namespace comx

#endif  // COMX_ROADNET_SHORTEST_PATH_H_
