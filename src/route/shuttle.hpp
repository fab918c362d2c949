// Shuttle-aware router for quantum-dot-style devices (Sec. VI-C).
//
// "certain dots can be momentarily empty and electrons can be moved to
//  empty dots in a way that maintains the qubit coherence, the so called
//  shuttling operation. The electron movement can be interpreted either as
//  a change in the device connectivity or as an alternative qubit routing
//  not based on SWAP gates. Specialized mappers are required to take full
//  advantage of these capabilities."
//
// This is that specialized mapper: a SABRE-style front-layer router whose
// action set contains both SWAPs (cost: 3 native two-qubit gates) and
// Moves into empty sites (cost: 1 native operation). When the program uses
// fewer qubits than the device has dots, most routing traffic rides the
// cheap moves; with a full register it degrades gracefully to SWAP-only
// routing. It runs the shared lookahead loop (route/sabre_loop.hpp) with
// the SABRE tuning; its loop core keeps only the action choice: an edge
// with one free site offers a Move into it (nothing when both are free),
// an action scores decay * (front + 0.5 * extended + 0.1 * cost), and the
// stall rescue moves into free sites along its path too.
#pragma once

#include "route/router.hpp"

namespace qmap {

class ShuttleRouter final : public Router {
 public:
  [[nodiscard]] std::string name() const override { return "shuttle"; }
  /// Throws MappingError when the device does not support shuttling.
  [[nodiscard]] RoutingResult route(const Circuit& circuit,
                                    const Device& device,
                                    const Placement& initial) override;
};

}  // namespace qmap
