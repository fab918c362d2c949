// Reliability-aware mapping: "minimize the error rate by choosing the most
// reliable paths" (Sec. III-B, [45]-[47], [50]).
//
// Both components share the reliability-weighted distance matrix: the cost
// of moving two qubits together along a path is the sum of SWAP log-error
// costs along it (Dijkstra over edges weighted by -3*log(1 - e_edge)), so
// a longer path through well-calibrated couplers can beat a short path
// through a noisy one.
#pragma once

#include <vector>

#include "arch/device.hpp"
#include "layout/placers.hpp"
#include "route/router.hpp"

namespace qmap {

/// All-pairs reliability-weighted distances over the coupling graph.
class ReliabilityDistance {
 public:
  /// Throws DeviceError when the device has no noise model.
  explicit ReliabilityDistance(const Device& device);

  /// Accumulated SWAP log-error cost of the cheapest path from a to b.
  [[nodiscard]] double cost(int a, int b) const;
  /// -log(1 - e) of executing one two-qubit gate on the *edge* (a, b).
  [[nodiscard]] double edge_gate_cost(int a, int b) const;
  /// Log-error of one SWAP on the edge (a, b). The router adds it to each
  /// candidate's score, so noisy couplers are used only when the
  /// downstream gain justifies them.
  [[nodiscard]] double swap_cost(int a, int b) const;

 private:
  int num_qubits_ = 0;
  std::vector<double> cost_;       // row-major all-pairs
  const Device* device_;
};

/// Greedy placer over reliability-weighted distances: interacting program
/// qubits land on well-connected, well-calibrated regions.
class ReliabilityPlacer final : public Placer {
 public:
  [[nodiscard]] std::string name() const override { return "reliability"; }
  [[nodiscard]] Placement place(const Circuit& circuit,
                                const Device& device) override;
};

/// SABRE-style router whose objective is the accumulated log-error cost:
/// the shared sabre loop (route/sabre_loop.hpp) with ReliabilityDistance
/// as its distance source, so candidate SWAPs pay their own log-error and
/// are scored by the reliability-weighted distances of the front layer
/// (+ lookahead).
class ReliabilityRouter final : public Router {
 public:
  [[nodiscard]] std::string name() const override { return "reliability"; }
  [[nodiscard]] RoutingResult route(const Circuit& circuit,
                                    const Device& device,
                                    const Placement& initial) override;
};

}  // namespace qmap
