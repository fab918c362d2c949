#include "decompose/peephole.hpp"

#include <cmath>
#include <cstddef>

namespace qmap {
namespace {

constexpr double kTwoPi = 2.0 * 3.14159265358979323846;

bool same_pair(const Gate& a, const Gate& b, bool allow_reversed) {
  if (a.qubits == b.qubits) return true;
  if (!allow_reversed) return false;
  return a.qubits.size() == 2 && b.qubits.size() == 2 &&
         a.qubits[0] == b.qubits[1] && a.qubits[1] == b.qubits[0];
}

/// Is this kind a self-inverse two-qubit gate we cancel in pairs?
bool cancellable_two_qubit(GateKind kind) {
  return kind == GateKind::CX || kind == GateKind::CZ ||
         kind == GateKind::SWAP;
}

/// Symmetric kinds also cancel when the operand order is reversed.
bool cancels_reversed(GateKind kind) {
  return gate_info(kind).symmetric;
}

/// Drops the gates whose `alive` flag is clear, keeping order. Live
/// indices are only read while a pass marks, never after it compacts.
void compact(std::vector<Gate>& gates, const std::vector<char>& alive) {
  std::size_t write = 0;
  for (std::size_t read = 0; read < gates.size(); ++read) {
    if (!alive[read]) continue;
    if (write != read) gates[write] = std::move(gates[read]);
    ++write;
  }
  gates.erase(gates.begin() + static_cast<std::ptrdiff_t>(write), gates.end());
}

bool mergeable(GateKind kind) {
  return kind == GateKind::Rx || kind == GateKind::Ry ||
         kind == GateKind::Rz || kind == GateKind::Phase ||
         kind == GateKind::CPhase || kind == GateKind::CRz;
}

// Rotations are periodic: Rx/Ry/Rz/CRz with angle ~ 0 mod 4pi are exact
// identity (2pi gives a global phase -1, which is unobservable for 1q
// rotations but NOT for controlled ones, so be conservative there);
// Phase/CPhase have period 2pi.
bool is_identity_angle(GateKind kind, double angle) {
  const double period =
      (kind == GateKind::Phase || kind == GateKind::CPhase) ? kTwoPi
                                                            : 2.0 * kTwoPi;
  const double remainder = std::fmod(std::abs(angle), period);
  return remainder < 1e-12 || period - remainder < 1e-12;
}

/// A circuit with `circuit`'s register and name holding the gates a pass
/// left in `gates`.
Circuit with_gates(const Circuit& circuit, std::vector<Gate> gates) {
  Circuit out(circuit.num_qubits(), circuit.name());
  out.set_gates(std::move(gates));
  return out;
}

}  // namespace

void cancel_two_qubit_pairs(std::vector<Gate>& gates, int num_qubits) {
  std::vector<char> alive(gates.size(), 1);
  // live[q] = index of the unmatched cancellable two-qubit gate currently
  // "live" on qubit q (or -1).
  std::vector<int> live(static_cast<std::size_t>(num_qubits), -1);

  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& gate = gates[i];
    const bool cancellable =
        gate.is_two_qubit() && cancellable_two_qubit(gate.kind);
    if (cancellable) {
      const int la = live[static_cast<std::size_t>(gate.qubits[0])];
      const int lb = live[static_cast<std::size_t>(gate.qubits[1])];
      if (la >= 0 && la == lb && alive[static_cast<std::size_t>(la)] &&
          gates[static_cast<std::size_t>(la)].kind == gate.kind &&
          same_pair(gates[static_cast<std::size_t>(la)], gate,
                    cancels_reversed(gate.kind))) {
        // Annihilate the pair.
        alive[static_cast<std::size_t>(la)] = 0;
        alive[i] = 0;
        live[static_cast<std::size_t>(gate.qubits[0])] = -1;
        live[static_cast<std::size_t>(gate.qubits[1])] = -1;
        continue;
      }
    }
    // The gate interrupts any live candidates on its qubits.
    for (const int q : gate.qubits) live[static_cast<std::size_t>(q)] = -1;
    if (cancellable) {
      live[static_cast<std::size_t>(gate.qubits[0])] = static_cast<int>(i);
      live[static_cast<std::size_t>(gate.qubits[1])] = static_cast<int>(i);
    }
  }
  compact(gates, alive);
}

void merge_rotations(std::vector<Gate>& gates, int num_qubits) {
  std::vector<char> alive(gates.size(), 1);
  // live rotation per qubit: index of a surviving mergeable rotation; a
  // gate merges into it only when kind and operand order match exactly.
  std::vector<int> live(static_cast<std::size_t>(num_qubits), -1);

  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& gate = gates[i];
    if (mergeable(gate.kind)) {
      // All operands must point at the same live rotation with identical
      // kind and operand order.
      const int candidate = live[static_cast<std::size_t>(gate.qubits[0])];
      bool matches = candidate >= 0 &&
                     alive[static_cast<std::size_t>(candidate)] &&
                     gates[static_cast<std::size_t>(candidate)].kind ==
                         gate.kind &&
                     gates[static_cast<std::size_t>(candidate)].qubits ==
                         gate.qubits;
      for (const int q : gate.qubits) {
        if (live[static_cast<std::size_t>(q)] != candidate) matches = false;
      }
      if (matches) {
        // Angles sum left to right into the earlier gate.
        Gate& target = gates[static_cast<std::size_t>(candidate)];
        target.params[0] += gate.params[0];
        alive[i] = 0;
        if (is_identity_angle(target.kind, target.params[0])) {
          alive[static_cast<std::size_t>(candidate)] = 0;
          for (const int q : gate.qubits) {
            live[static_cast<std::size_t>(q)] = -1;
          }
        }
        continue;
      }
    }
    for (const int q : gate.qubits) live[static_cast<std::size_t>(q)] = -1;
    if (!mergeable(gate.kind)) continue;
    if (is_identity_angle(gate.kind, gate.params[0])) {
      alive[i] = 0;  // drop an exact-identity rotation outright
      continue;
    }
    for (const int q : gate.qubits) {
      live[static_cast<std::size_t>(q)] = static_cast<int>(i);
    }
  }
  compact(gates, alive);
}

void peephole_optimize(std::vector<Gate>& gates, int num_qubits,
                       int max_iterations) {
  for (int iteration = 0; iteration < max_iterations; ++iteration) {
    const std::size_t before = gates.size();
    cancel_two_qubit_pairs(gates, num_qubits);
    merge_rotations(gates, num_qubits);
    if (gates.size() == before) break;
  }
}

Circuit cancel_two_qubit_pairs(const Circuit& circuit) {
  std::vector<Gate> gates = circuit.gates();
  cancel_two_qubit_pairs(gates, circuit.num_qubits());
  return with_gates(circuit, std::move(gates));
}

Circuit merge_rotations(const Circuit& circuit) {
  std::vector<Gate> gates = circuit.gates();
  merge_rotations(gates, circuit.num_qubits());
  return with_gates(circuit, std::move(gates));
}

Circuit peephole_optimize(const Circuit& circuit, int max_iterations) {
  std::vector<Gate> gates = circuit.gates();
  peephole_optimize(gates, circuit.num_qubits(), max_iterations);
  return with_gates(circuit, std::move(gates));
}

}  // namespace qmap
