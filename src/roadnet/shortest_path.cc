#include "roadnet/shortest_path.h"

#include <algorithm>
#include <queue>

#include "geo/distance.h"

namespace comx {
namespace {

using QItem = std::pair<double, NodeId>;  // (priority, node)
using MinQueue =
    std::priority_queue<QItem, std::vector<QItem>, std::greater<>>;

}  // namespace

double ShortestPathKm(const RoadGraph& graph, NodeId source, NodeId target) {
  if (source == target) return 0.0;
  std::vector<double> dist(static_cast<size_t>(graph.node_count()),
                           kUnreachable);
  dist[static_cast<size_t>(source)] = 0.0;
  MinQueue queue;
  queue.emplace(0.0, source);
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (u == target) return d;
    if (d > dist[static_cast<size_t>(u)]) continue;
    for (const RoadArc& arc : graph.ArcsFrom(u)) {
      const double nd = d + arc.length_km;
      if (nd < dist[static_cast<size_t>(arc.to)]) {
        dist[static_cast<size_t>(arc.to)] = nd;
        queue.emplace(nd, arc.to);
      }
    }
  }
  return kUnreachable;
}

double AStarKm(const RoadGraph& graph, NodeId source, NodeId target) {
  if (source == target) return 0.0;
  const Point goal = graph.NodeLocation(target);
  std::vector<double> g(static_cast<size_t>(graph.node_count()),
                        kUnreachable);
  g[static_cast<size_t>(source)] = 0.0;
  MinQueue open;
  open.emplace(EuclideanDistance(graph.NodeLocation(source), goal), source);
  while (!open.empty()) {
    const auto [f, u] = open.top();
    open.pop();
    if (u == target) return g[static_cast<size_t>(u)];
    // Stale-entry skip: recompute f from current g.
    const double fu = g[static_cast<size_t>(u)] +
                      EuclideanDistance(graph.NodeLocation(u), goal);
    if (f > fu + 1e-12) continue;
    for (const RoadArc& arc : graph.ArcsFrom(u)) {
      const double ng = g[static_cast<size_t>(u)] + arc.length_km;
      if (ng < g[static_cast<size_t>(arc.to)]) {
        g[static_cast<size_t>(arc.to)] = ng;
        open.emplace(ng + EuclideanDistance(graph.NodeLocation(arc.to), goal),
                     arc.to);
      }
    }
  }
  return kUnreachable;
}

std::vector<NodeId> ShortestPathNodes(const RoadGraph& graph, NodeId source,
                                      NodeId target) {
  std::vector<double> dist(static_cast<size_t>(graph.node_count()),
                           kUnreachable);
  std::vector<NodeId> parent(static_cast<size_t>(graph.node_count()), -1);
  dist[static_cast<size_t>(source)] = 0.0;
  MinQueue queue;
  queue.emplace(0.0, source);
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (u == target) break;
    if (d > dist[static_cast<size_t>(u)]) continue;
    for (const RoadArc& arc : graph.ArcsFrom(u)) {
      const double nd = d + arc.length_km;
      if (nd < dist[static_cast<size_t>(arc.to)]) {
        dist[static_cast<size_t>(arc.to)] = nd;
        parent[static_cast<size_t>(arc.to)] = u;
        queue.emplace(nd, arc.to);
      }
    }
  }
  if (dist[static_cast<size_t>(target)] == kUnreachable && source != target) {
    return {};
  }
  std::vector<NodeId> path;
  for (NodeId v = target; v != -1; v = parent[static_cast<size_t>(v)]) {
    path.push_back(v);
    if (v == source) break;
  }
  std::reverse(path.begin(), path.end());
  if (path.front() != source) return {};
  return path;
}

}  // namespace comx
