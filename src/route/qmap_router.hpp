// Latency-aware router in the spirit of Qmap (Lao et al. [39], Sec. V):
// the cost function is circuit latency rather than gate count. The router
// keeps a busy-until time per physical qubit computed from real gate
// durations — the "look-back" feature: already-scheduled operations decide
// which routing path is cheapest — and among SWAPs that help the front
// layer it picks the one that can start (and finish) earliest, maximizing
// instruction-level parallelism.
//
// It runs the shared lookahead loop (route/sabre_loop.hpp) with its own
// loop core: a SWAP scores front + 0.3 * extended over a 10-gate window
// (no decay), scores within 1e-12 tie and the SWAP finishing first wins,
// and every emitted gate — program gates, chosen SWAPs and stall-rescue
// SWAPs — advances the busy-until cycles of the qubits it occupies.
// Counters land under router.qmap.* (record_sabre_loop).
#pragma once

#include "route/router.hpp"

namespace qmap {

class QmapRouter final : public Router {
 public:
  [[nodiscard]] std::string name() const override { return "qmap"; }
  [[nodiscard]] RoutingResult route(const Circuit& circuit,
                                    const Device& device,
                                    const Placement& initial) override;
};

}  // namespace qmap
