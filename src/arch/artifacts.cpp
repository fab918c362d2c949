#include "arch/artifacts.hpp"

#include <algorithm>
#include <deque>

#include "common/error.hpp"

namespace qmap {

void ArchArtifacts::check_qubit(int q) const {
  if (q < 0 || q >= num_qubits_) {
    throw DeviceError("physical qubit Q" + std::to_string(q) +
                      " out of range (artifacts cover " +
                      std::to_string(num_qubits_) + " qubits)");
  }
}

ArchArtifacts ArchArtifacts::build(const CouplingGraph& coupling) {
  ArchArtifacts artifacts;
  const int n = coupling.num_qubits();
  const auto size = static_cast<std::size_t>(n);
  artifacts.num_qubits_ = n;
  artifacts.dist_.assign(size * size, -1);
  artifacts.parent_.assign(size * size, -1);

  // One BFS per source fills both the distance row and the parent row:
  // ascending neighbour lists, parent assigned on first discovery.
  for (int source = 0; source < n; ++source) {
    const std::size_t row = static_cast<std::size_t>(source) * size;
    artifacts.dist_[row + static_cast<std::size_t>(source)] = 0;
    artifacts.parent_[row + static_cast<std::size_t>(source)] = source;
    std::deque<int> queue{source};
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      for (const int v : coupling.neighbors(u)) {
        if (artifacts.dist_[row + static_cast<std::size_t>(v)] < 0) {
          artifacts.dist_[row + static_cast<std::size_t>(v)] =
              artifacts.dist_[row + static_cast<std::size_t>(u)] + 1;
          artifacts.parent_[row + static_cast<std::size_t>(v)] = u;
          queue.push_back(v);
        }
      }
    }
  }

  artifacts.total_distance_.assign(size, 0);
  bool connected = true;
  int diameter = 0;
  for (int a = 0; a < n; ++a) {
    long sum = 0;
    bool row_connected = true;
    for (int b = 0; b < n; ++b) {
      const int d =
          artifacts.dist_[static_cast<std::size_t>(a) * size +
                          static_cast<std::size_t>(b)];
      if (d < 0) {
        row_connected = false;
        connected = false;
        continue;
      }
      sum += d;
      diameter = std::max(diameter, d);
    }
    artifacts.total_distance_[static_cast<std::size_t>(a)] =
        row_connected ? sum : -1;
  }
  artifacts.diameter_ = connected ? diameter : -1;
  return artifacts;
}

int ArchArtifacts::distance(int a, int b) const {
  check_qubit(a);
  check_qubit(b);
  return dist_[static_cast<std::size_t>(a) *
                   static_cast<std::size_t>(num_qubits_) +
               static_cast<std::size_t>(b)];
}

long ArchArtifacts::total_distance_from(int q) const {
  check_qubit(q);
  return total_distance_[static_cast<std::size_t>(q)];
}

std::vector<int> ArchArtifacts::shortest_path(int a, int b) const {
  check_qubit(a);
  check_qubit(b);
  if (a == b) return {a};
  const std::size_t row =
      static_cast<std::size_t>(a) * static_cast<std::size_t>(num_qubits_);
  if (parent_[row + static_cast<std::size_t>(b)] < 0) return {};
  std::vector<int> path;
  for (int v = b; v != a; v = parent_[row + static_cast<std::size_t>(v)]) {
    path.push_back(v);
  }
  path.push_back(a);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace qmap
