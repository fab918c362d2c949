#include "ir/dag.hpp"

namespace qmap {

QubitAction qubit_action(const Gate& gate, int qubit) {
  switch (gate.kind) {
    // Single-qubit Z-diagonal.
    case GateKind::I:
    case GateKind::Z:
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::T:
    case GateKind::Tdg:
    case GateKind::Rz:
    case GateKind::Phase:
      return QubitAction::Diagonal;
    // Single-qubit X-basis diagonal.
    case GateKind::X:
    case GateKind::Rx:
    case GateKind::SX:
    case GateKind::SXdg:
      return QubitAction::AntiDiagonalX;
    // Controlled gates: controls are Z-diagonal; targets follow the base
    // gate's axis.
    case GateKind::CX:
      return qubit == gate.qubits[0] ? QubitAction::Diagonal
                                     : QubitAction::AntiDiagonalX;
    case GateKind::CZ:
    case GateKind::CPhase:
    case GateKind::CRz:
      return QubitAction::Diagonal;  // fully diagonal two-qubit gates
    case GateKind::CCX:
      return qubit == gate.qubits[2] ? QubitAction::AntiDiagonalX
                                     : QubitAction::Diagonal;
    default:
      return QubitAction::Other;
  }
}

bool gates_commute(const Gate& a, const Gate& b) {
  if (!a.is_unitary() || !b.is_unitary()) return false;  // Measure/Barrier
  for (const int qa : a.qubits) {
    for (const int qb : b.qubits) {
      if (qa != qb) continue;
      const QubitAction action_a = qubit_action(a, qa);
      const QubitAction action_b = qubit_action(b, qa);
      if (action_a == QubitAction::Other || action_a != action_b) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace qmap
