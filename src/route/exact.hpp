// Exact router — minimal SWAP/direction-fix mapping in the spirit of
// Wille, Burgholzer, Zulehner [57] (used for Fig. 3(d)).
//
// Runs Dijkstra over the state space
//     (next two-qubit gate to execute, placement of program qubits)
// with SWAP transitions weighted 1000 and gate executions weighted 1 when
// the CX orientation must be inverted. This minimizes the number of SWAPs
// and, among SWAP-minimal solutions, the number of inverted CNOTs — the
// "minimal number of SWAP and H operations" objective of [57].
//
// The state space is (#physical)! / (#free)! placements per gate, so this
// is intentionally limited to small devices (Sec. IV: exact approaches
// "are not scalable"); the scalability wall is itself one of the paper's
// talking points and is measured in bench_exact_scalability.
//
// Optimality caveat (shared with [57]): the result is minimal with respect
// to the circuit's *given total gate order*. DAG-based heuristic routers
// may reorder independent gates and can therefore occasionally use fewer
// SWAPs on circuits with much commuting freedom; on a fixed gate sequence
// this router lower-bounds every SWAP-inserting strategy.
#pragma once

#include "route/router.hpp"

namespace qmap {

class ExactRouter final : public Router {
 public:
  struct Options {
    /// Dijkstra state budget; throws MappingError when exceeded.
    std::size_t max_states = 4'000'000;
  };

  ExactRouter() = default;
  explicit ExactRouter(const Options& options) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "exact"; }
  [[nodiscard]] RoutingResult route(const Circuit& circuit,
                                    const Device& device,
                                    const Placement& initial) override;

 private:
  Options options_;
};

}  // namespace qmap
