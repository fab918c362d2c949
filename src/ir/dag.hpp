// Dependency rules of a circuit's gate DAG (Sec. VI-B of the paper:
// "a directed, acyclic graph with nodes representing the quantum gates and
// edges indicating dependencies"). Nodes are gate indices; an edge u -> v
// means gate v depends on gate u. The rules live here; RouteIR::build
// (route/route_ir.hpp) is the one place that applies them to a whole
// circuit, and FrontLayer carries the scheduled / ready / pending colours.
// StreamRouteCore (route/stream_core.hpp) applies the same rules to its
// sliding window of a streamed circuit.
#pragma once

#include "ir/circuit.hpp"

namespace qmap {

/// How dependencies are derived from the gate list.
enum class DagMode {
  /// Strict per-qubit program order: a gate depends on the previous gate
  /// touching any of its qubits.
  Sequential,
  /// Gate-commutation-aware ([58], cited in Sec. IV): gates that provably
  /// commute on every shared qubit impose no ordering. E.g. two CNOTs
  /// sharing their control, two CNOTs sharing their target, diagonal gates
  /// (Rz/T/CZ/CPhase) on a CNOT control, and the QFT's controlled-phase
  /// ladders are all unordered, exposing extra freedom to the routers.
  Commutation,
};

/// Per-qubit action class used for the commutation analysis.
enum class QubitAction {
  Diagonal,  // Z-basis diagonal on this qubit (incl. acting as a control)
  AntiDiagonalX,  // X-basis diagonal (X, Rx, SX, CX target)
  Other,     // orders with everything
};

/// Classifies how `gate` acts on its operand `qubit` (which must be one of
/// the gate's operands).
[[nodiscard]] QubitAction qubit_action(const Gate& gate, int qubit);

/// True when the two gates provably commute (same non-Other action class
/// on every shared qubit). Conservative: false negatives allowed, false
/// positives not.
[[nodiscard]] bool gates_commute(const Gate& a, const Gate& b);

}  // namespace qmap
