// Layer-based A* router in the style of Zulehner, Paler, Wille [54] — the
// heuristic used for Fig. 3(c) of the paper.
//
// The circuit is split into ASAP layers of disjoint-qubit gates. For every
// layer whose two-qubit gates are not all executable, an A* search over
// placements finds a minimal SWAP sequence making the *whole layer*
// executable at once. The per-layer heuristic
//     h = ceil( sum_g (dist(g) - 1) / 2 )
// is admissible (one SWAP moves two wires, and layer gates are
// qubit-disjoint), so each layer is solved with a minimal number of SWAPs.
// A layer whose search exceeds its node-expansion budget falls back to
// shortest-path routing.
#pragma once

#include "route/router.hpp"

namespace qmap {

class AStarLayerRouter final : public Router {
 public:
  [[nodiscard]] std::string name() const override { return "astar_layer"; }
  [[nodiscard]] RoutingResult route(const Circuit& circuit,
                                    const Device& device,
                                    const Placement& initial) override;
};

}  // namespace qmap
