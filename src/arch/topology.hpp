// Coupling graph: which physical-qubit pairs may host a two-qubit gate.
//
// IBM devices (Sec. IV of the paper) publish a *directed* coupling graph —
// an edge Qi -> Qj means a CNOT with control Qi and target Qj is allowed,
// and nothing else. Devices like Surface-17 (Sec. V) are symmetric: a CZ
// may run on any connected pair in either orientation. Both are captured
// here: connectivity is stored undirected, and each undirected edge records
// which orientations are permitted.
//
// The graph holds structure only. Hop distances and shortest paths are
// derived tables (arch/artifacts.hpp) that each Device builds once from
// its graph.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace qmap {

class CouplingGraph {
 public:
  CouplingGraph() = default;
  explicit CouplingGraph(int num_qubits);

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Adds an edge. `directed == true` permits only the (a -> b) orientation
  /// for directional gates; `false` permits both. Adding both (a,b) and
  /// (b,a) directed edges yields a fully symmetric connection.
  void add_edge(int a, int b, bool directed = false);

  /// True when a two-qubit gate may couple a and b in *some* orientation.
  [[nodiscard]] bool connected(int a, int b) const;

  /// True when a *directional* two-qubit gate with control `control` and
  /// target `target` is allowed as-is (without inserting direction fixes).
  [[nodiscard]] bool orientation_allowed(int control, int target) const;

  /// Neighbours of q, ascending.
  [[nodiscard]] const std::vector<int>& neighbors(int q) const;

  /// Undirected edge list, each pair with a < b plus orientation flags.
  struct Edge {
    int a = 0;
    int b = 0;
    bool a_to_b = false;  // orientation a(control) -> b(target) allowed
    bool b_to_a = false;
  };
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept {
    return edges_;
  }

 private:
  void check_qubit(int q) const;

  // Flat num_qubits x num_qubits link matrix behind the O(1) queries:
  // bit 0 = connected in some orientation, bit 1 = (row=control,
  // col=target) orientation allowed. Maintained by add_edge so
  // connected()/orientation_allowed() — the per-emitted-gate checks on
  // every router's hot path — never scan the edge list.
  static constexpr std::uint8_t kLinkConnected = 1;
  static constexpr std::uint8_t kLinkOriented = 2;
  std::vector<std::uint8_t> link_;

  int num_qubits_ = 0;
  std::vector<std::vector<int>> adjacency_;
  std::vector<Edge> edges_;
};

}  // namespace qmap
