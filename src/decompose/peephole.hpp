// Peephole circuit optimization.
//
// Mapping inflates circuits with structured redundancy: consecutive
// inverted CNOTs produce cancelling Hadamard pairs (handled by
// fuse_single_qubit), back-to-back identical CX/CZ/SWAP pairs arise when a
// routed qubit bounces, and rotation chains accumulate. Minimizing the
// resulting gate count is exactly the paper's first cost function
// (Sec. III-B); heuristic mappers like [54] bundle such clean-up passes.
//
// All passes are semantics-preserving (verified by the tests at the
// unitary level).
#pragma once

#include <vector>

#include "ir/circuit.hpp"

namespace qmap {

/// Cancels adjacent self-inverse two-qubit pairs: CX(a,b) CX(a,b) -> I
/// (same for CZ and SWAP; CZ/SWAP also cancel with reversed operands).
/// "Adjacent" means no other gate touches either qubit in between.
[[nodiscard]] Circuit cancel_two_qubit_pairs(const Circuit& circuit);

/// Merges runs of same-axis rotations on one qubit (or one operand pair):
/// Rz(a) Rz(b) -> Rz(a+b), angles summed left to right into the earlier
/// gate. Drops rotations whose angle is ~ 0 modulo the kind's period: 4*pi
/// for Rx/Ry/Rz/CRz (2*pi is a global phase -1 there, observable once
/// controlled), 2*pi for Phase/CPhase.
[[nodiscard]] Circuit merge_rotations(const Circuit& circuit);

/// Runs cancel_two_qubit_pairs then merge_rotations, repeated until an
/// iteration leaves the gate count unchanged or `max_iterations` ran.
/// Single-qubit fusion is a separate pass (fuse_single_qubit).
[[nodiscard]] Circuit peephole_optimize(const Circuit& circuit,
                                        int max_iterations = 8);

/// In-place forms over a gate buffer on `num_qubits` qubits: each pass
/// marks the gates it removes and compacts the buffer once, so the result
/// is exactly the Circuit form's.
void cancel_two_qubit_pairs(std::vector<Gate>& gates, int num_qubits);
void merge_rotations(std::vector<Gate>& gates, int num_qubits);
void peephole_optimize(std::vector<Gate>& gates, int num_qubits,
                       int max_iterations = 8);

}  // namespace qmap
