// Per-call reference for the device distance tables (arch/artifacts.hpp),
// written from the rule rather than from the production code:
//
//   a shortest path from a to b is the one a breadth-first search from a
//   reconstructs when it visits neighbours in ascending order, records the
//   first parent it finds for each qubit, and stops once b is dequeued;
//   the hop distance is that path's length minus one (-1 when no path).
//
// ArchArtifacts runs one full BFS per source instead; tests compare every
// pair against this early-exit search.
#pragma once

#include <algorithm>
#include <deque>
#include <vector>

#include "arch/topology.hpp"

namespace qmap {

inline std::vector<int> reference_shortest_path(const CouplingGraph& graph,
                                                int a, int b) {
  if (a == b) return {a};
  std::vector<int> parent(static_cast<std::size_t>(graph.num_qubits()), -1);
  parent[static_cast<std::size_t>(a)] = a;
  std::deque<int> queue{a};
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    if (u == b) break;
    for (const int v : graph.neighbors(u)) {
      if (parent[static_cast<std::size_t>(v)] < 0) {
        parent[static_cast<std::size_t>(v)] = u;
        queue.push_back(v);
      }
    }
  }
  if (parent[static_cast<std::size_t>(b)] < 0) return {};
  std::vector<int> path;
  for (int v = b; v != a; v = parent[static_cast<std::size_t>(v)]) {
    path.push_back(v);
  }
  path.push_back(a);
  std::reverse(path.begin(), path.end());
  return path;
}

inline int reference_distance(const CouplingGraph& graph, int a, int b) {
  return static_cast<int>(reference_shortest_path(graph, a, b).size()) - 1;
}

}  // namespace qmap
