// Gate model: the instruction set of the circuit IR.
//
// The gate zoo covers the universal set reviewed in Sec. II of the paper
// (H, X, Y, Z, T, CX, CZ, SWAP), the IBM native set of Sec. IV
// (U(theta,phi,lambda) and CX), the Surface-17 native set of Sec. V
// (Rx, Ry rotations and CZ), plus the usual multi-qubit gates that the
// decomposition passes lower (Toffoli, Fredkin) and the non-unitary
// operations needed end-to-end (measurement, barrier).
//
// Matrix convention: for a k-qubit gate, `qubits[0]` is the MOST significant
// bit of the 2^k-dimensional basis index. Thus CX with qubits = {c, t} maps
// |c t> = |1 0> to |1 1>, matching the CX matrix printed in the paper.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/matrix.hpp"

namespace qmap {

enum class GateKind : std::uint8_t {
  // Single-qubit, parameter-free.
  I, X, Y, Z, H, S, Sdg, T, Tdg, SX, SXdg,
  // Single-qubit, parameterized (radians).
  Rx, Ry, Rz, Phase,  // Phase(lambda) = diag(1, e^{i lambda})
  U,                  // U(theta, phi, lambda) -- IBM native one-qubit gate
  // Two-qubit.
  CX, CZ, SWAP, ISWAP, CPhase, CRz,
  // Shuttling move (Sec. VI-C, silicon quantum dots): physically relocates
  // a qubit into an *empty* adjacent site. Wire semantics equal SWAP (the
  // vacated site's free wire travels back), but it is a single native
  // operation, not three two-qubit gates — routers exploit the difference.
  Move,
  // Three-qubit.
  CCX,    // Toffoli
  CSWAP,  // Fredkin
  // Non-unitary.
  Measure,  // computational-basis measurement into a classical bit
  Barrier,  // scheduling barrier across its operand qubits
};

/// Static properties of a gate kind.
struct GateInfo {
  std::string_view name;   // canonical lower-case mnemonic (OpenQASM style)
  int arity;               // number of qubit operands
  int num_params;          // number of angle parameters
  bool unitary;            // false for Measure / Barrier
  bool symmetric;          // invariant under operand exchange (CZ, SWAP, ...)
  bool diagonal;           // diagonal in the computational basis
};

/// Lookup table access; total over all GateKind values.
[[nodiscard]] const GateInfo& gate_info(GateKind kind);

/// Parse a canonical mnemonic ("cx", "u", "rz", ...). Throws ParseError.
[[nodiscard]] GateKind gate_kind_from_name(std::string_view name);

/// One instruction: a gate kind applied to concrete qubit operands.
struct Gate {
  GateKind kind = GateKind::I;
  std::vector<int> qubits;    // size == gate_info(kind).arity (Barrier: any)
  std::vector<double> params; // size == gate_info(kind).num_params
  int cbit = -1;              // classical destination for Measure

  [[nodiscard]] bool is_unitary() const { return gate_info(kind).unitary; }
  [[nodiscard]] bool is_two_qubit() const {
    return gate_info(kind).arity == 2 && kind != GateKind::Barrier;
  }
  /// True when exchanging the operands changes the semantics (e.g. CX).
  [[nodiscard]] bool is_directional() const {
    return is_two_qubit() && !gate_info(kind).symmetric;
  }

  /// Human-readable form, e.g. "cx q2, q4" or "rz(0.5) q1".
  [[nodiscard]] std::string to_string() const;
  /// Appends to_string()'s text to `out` without a temporary.
  void append_to(std::string& out) const;

  /// Unitary matrix (2^arity square). Throws CircuitError for non-unitary
  /// kinds. Uses the qubit-ordering convention documented above.
  [[nodiscard]] Matrix matrix() const;

  /// The same matrix for single-qubit unitary kinds, by value (no heap).
  /// matrix() of those kinds is built from it. Throws CircuitError for
  /// every other kind.
  [[nodiscard]] Mat2 matrix2() const;

  friend bool operator==(const Gate& a, const Gate& b) = default;
};

/// U(theta, phi, lambda)'s matrix: what matrix2() returns for a U gate.
[[nodiscard]] Mat2 u_matrix(double theta, double phi, double lambda);

/// Convenience constructors.
[[nodiscard]] Gate make_gate(GateKind kind, std::vector<int> qubits,
                             std::vector<double> params = {});
[[nodiscard]] Gate make_measure(int qubit, int cbit);
[[nodiscard]] Gate make_barrier(std::vector<int> qubits);

}  // namespace qmap
