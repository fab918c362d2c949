// BRIDGE-aware lookahead router ("On the qubit routing problem", Cowtan
// et al.): SABRE's front-layer/extended-window heuristic, except that a
// front-layer CX whose operands sit at distance exactly 2 may execute in
// place as a 4-CX BRIDGE template
//
//     CX(c,t) = CX(c,m) CX(m,t) CX(c,m) CX(m,t)   (m = the middle qubit)
//
// which satisfies the coupling graph without touching the placement. The
// router bridges such a gate when the best candidate SWAP buys nothing for
// the *rest* of the front layer and the lookahead window — i.e. moving the
// gate's qubits has no side benefit beyond the gate itself — and otherwise
// falls back to SWAP insertion, so qubits still migrate toward clusters of
// future interactions.
#pragma once

#include "route/router.hpp"

namespace qmap {

class BridgeRouter final : public Router {
 public:
  [[nodiscard]] std::string name() const override { return "bridge"; }
  [[nodiscard]] RoutingResult route(const Circuit& circuit,
                                    const Device& device,
                                    const Placement& initial) override;

  [[nodiscard]] bool supports_streaming() const override { return true; }
  StreamRouteStats route_stream(GateSource& source, const Device& device,
                                const Placement& initial, GateSink& sink,
                                const StreamRouteOptions& options) override;
};

}  // namespace qmap
