// Immutable distance tables derived from a coupling graph.
//
// Routing (Sec. III-A, task 3 of the paper) only ever reads two facts
// about a device: the hop distance between two physical qubits and one
// shortest path between them. ArchArtifacts holds both as flat
// num_qubits x num_qubits tables built by one BFS per source. Each Device
// builds its bundle once, in its constructor, and every copy of the Device
// shares it (Device::artifacts()); all readers — routers, placers, the
// measurement relocator, the token-swap finisher, portfolio workers on
// other threads — see the same immutable tables without locking.
//
// Path contract: every BFS walks neighbours in ascending order and keeps
// the first parent it finds, so shortest_path(a, b) is the path an
// early-exit BFS from a would reconstruct. Routers pick bridge and rescue
// paths from it, so routed output depends on this order
// (tests/test_arch.cpp checks it against a reference BFS).
#pragma once

#include <vector>

#include "arch/topology.hpp"

namespace qmap {

class ArchArtifacts {
 public:
  /// Derives the tables from `coupling`. O(V * (V + E)) BFS sweeps.
  [[nodiscard]] static ArchArtifacts build(const CouplingGraph& coupling);

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }

  /// Hop distance over the undirected coupling graph; -1 when disconnected.
  [[nodiscard]] int distance(int a, int b) const;

  /// Raw row-major matrix behind distance(): data[a * num_qubits + b].
  /// Router inner loops index this directly.
  [[nodiscard]] const int* distance_data() const noexcept {
    return dist_.data();
  }

  /// True when every qubit reaches every other (vacuously for 0 qubits).
  [[nodiscard]] bool connected() const noexcept { return diameter_ >= 0; }

  /// Max pairwise distance; -1 when the graph is disconnected.
  [[nodiscard]] int diameter() const noexcept { return diameter_; }

  /// Sum of distances from q to all other qubits; -1 when disconnected.
  /// (Placement heuristics use this to find the graph center.)
  [[nodiscard]] long total_distance_from(int q) const;

  /// One shortest path from a to b, endpoints inclusive; empty when
  /// disconnected.
  [[nodiscard]] std::vector<int> shortest_path(int a, int b) const;

 private:
  ArchArtifacts() = default;
  void check_qubit(int q) const;

  int num_qubits_ = 0;
  std::vector<int> dist_;    // num_qubits_^2, row-major: dist_[a * n + b]
  std::vector<int> parent_;  // num_qubits_^2: parent_[source * n + v]
  std::vector<long> total_distance_;
  int diameter_ = 0;
};

}  // namespace qmap
