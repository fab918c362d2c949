#include "arch/topology.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qmap {

CouplingGraph::CouplingGraph(int num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits < 0) throw DeviceError("negative qubit count");
  adjacency_.resize(static_cast<std::size_t>(num_qubits));
  link_.assign(static_cast<std::size_t>(num_qubits) *
                   static_cast<std::size_t>(num_qubits),
               0);
}

void CouplingGraph::check_qubit(int q) const {
  if (q < 0 || q >= num_qubits_) {
    throw DeviceError("physical qubit Q" + std::to_string(q) +
                      " out of range (device has " +
                      std::to_string(num_qubits_) + " qubits)");
  }
}

void CouplingGraph::add_edge(int a, int b, bool directed) {
  check_qubit(a);
  check_qubit(b);
  if (a == b) throw DeviceError("self-loop edge on Q" + std::to_string(a));
  const auto m = static_cast<std::size_t>(num_qubits_);
  const auto ab = static_cast<std::size_t>(a) * m + static_cast<std::size_t>(b);
  const auto ba = static_cast<std::size_t>(b) * m + static_cast<std::size_t>(a);
  link_[ab] |= kLinkConnected | kLinkOriented;
  link_[ba] |= kLinkConnected;
  if (!directed) link_[ba] |= kLinkOriented;
  const int lo = std::min(a, b);
  const int hi = std::max(a, b);
  for (Edge& edge : edges_) {
    if (edge.a == lo && edge.b == hi) {
      // Existing connection: widen the allowed orientations.
      if (!directed) {
        edge.a_to_b = edge.b_to_a = true;
      } else if (a == lo) {
        edge.a_to_b = true;
      } else {
        edge.b_to_a = true;
      }
      return;
    }
  }
  Edge edge;
  edge.a = lo;
  edge.b = hi;
  if (!directed) {
    edge.a_to_b = edge.b_to_a = true;
  } else if (a == lo) {
    edge.a_to_b = true;
  } else {
    edge.b_to_a = true;
  }
  edges_.push_back(edge);
  adjacency_[static_cast<std::size_t>(lo)].push_back(hi);
  adjacency_[static_cast<std::size_t>(hi)].push_back(lo);
  std::sort(adjacency_[static_cast<std::size_t>(lo)].begin(),
            adjacency_[static_cast<std::size_t>(lo)].end());
  std::sort(adjacency_[static_cast<std::size_t>(hi)].begin(),
            adjacency_[static_cast<std::size_t>(hi)].end());
}

bool CouplingGraph::connected(int a, int b) const {
  check_qubit(a);
  check_qubit(b);
  return (link_[static_cast<std::size_t>(a) *
                    static_cast<std::size_t>(num_qubits_) +
                static_cast<std::size_t>(b)] &
          kLinkConnected) != 0;
}

bool CouplingGraph::orientation_allowed(int control, int target) const {
  check_qubit(control);
  check_qubit(target);
  return (link_[static_cast<std::size_t>(control) *
                    static_cast<std::size_t>(num_qubits_) +
                static_cast<std::size_t>(target)] &
          kLinkOriented) != 0;
}

const std::vector<int>& CouplingGraph::neighbors(int q) const {
  check_qubit(q);
  return adjacency_[static_cast<std::size_t>(q)];
}

}  // namespace qmap
