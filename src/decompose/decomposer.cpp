#include "decompose/decomposer.hpp"

#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "decompose/euler.hpp"

namespace qmap {
namespace {

constexpr double kAngleTolerance = 1e-12;

/// Stage A: expand arity-3 gates and exotic two-qubit gates into
/// {single-qubit, CX, CZ, SWAP} form. CX/CZ/SWAP pass through untouched.
class StageA {
 public:
  explicit StageA(Circuit& out) : out_(out) {}

  void gate(const Gate& g) {
    switch (g.kind) {
      case GateKind::ISWAP: {
        // iSWAP(a,b) = (S x S) . H_a . CX(a,b) . CX(b,a) . H_b
        const int a = g.qubits[0];
        const int b = g.qubits[1];
        out_.s(a).s(b).h(a).cx(a, b).cx(b, a).h(b);
        break;
      }
      case GateKind::CPhase: {
        const int a = g.qubits[0];
        const int b = g.qubits[1];
        const double lambda = g.params[0];
        out_.p(lambda / 2.0, a)
            .cx(a, b)
            .p(-lambda / 2.0, b)
            .cx(a, b)
            .p(lambda / 2.0, b);
        break;
      }
      case GateKind::CRz: {
        const int a = g.qubits[0];
        const int b = g.qubits[1];
        const double lambda = g.params[0];
        out_.rz(lambda / 2.0, b).cx(a, b).rz(-lambda / 2.0, b).cx(a, b);
        break;
      }
      case GateKind::CCX:
        toffoli(g.qubits[0], g.qubits[1], g.qubits[2]);
        break;
      case GateKind::CSWAP: {
        // Fredkin(c; a, b) = CX(b,a) . CCX(c,a,b) . CX(b,a)
        const int c = g.qubits[0];
        const int a = g.qubits[1];
        const int b = g.qubits[2];
        out_.cx(b, a);
        toffoli(c, a, b);
        out_.cx(b, a);
        break;
      }
      default:
        out_.add(g);
    }
  }

 private:
  void toffoli(int a, int b, int c) {
    // Standard 6-CNOT, 7-T decomposition (Nielsen & Chuang Fig. 4.9).
    out_.h(c)
        .cx(b, c)
        .tdg(c)
        .cx(a, c)
        .t(c)
        .cx(b, c)
        .tdg(c)
        .cx(a, c)
        .t(b)
        .t(c)
        .h(c)
        .cx(a, b)
        .t(a)
        .tdg(b)
        .cx(a, b);
  }

  Circuit& out_;
};

void emit_two_qubit(Circuit& out, GateKind kind, GateKind target, int a,
                    int b) {
  if (kind == target) {
    out.add(make_gate(kind, {a, b}));
    return;
  }
  // CX <-> CZ via Hadamards on the target qubit: CX(a,b) = H_b CZ(a,b) H_b.
  if (kind == GateKind::CX && target == GateKind::CZ) {
    out.h(b).cz(a, b).h(b);
    return;
  }
  if (kind == GateKind::CZ && target == GateKind::CX) {
    out.h(b).cx(a, b).h(b);
    return;
  }
  throw MappingError("unsupported two-qubit lowering target");
}

bool is_identity_up_to_phase(const Matrix& m) {
  return m.equal_up_to_global_phase(Matrix::identity(2), 1e-10);
}

/// Stage B, one gate: convert CX/CZ/SWAP to the target two-qubit kind.
/// Shared by the batch pass and the streaming lowerer so the rewrite has a
/// single source of truth.
void lower_intermediate_gate(const Gate& gate, GateKind target,
                             bool keep_swaps, Circuit& out) {
  switch (gate.kind) {
    case GateKind::CX:
    case GateKind::CZ:
      emit_two_qubit(out, gate.kind, target, gate.qubits[0], gate.qubits[1]);
      break;
    case GateKind::SWAP: {
      if (keep_swaps) {
        out.add(gate);
        break;
      }
      const int a = gate.qubits[0];
      const int b = gate.qubits[1];
      emit_two_qubit(out, GateKind::CX, target, a, b);
      emit_two_qubit(out, GateKind::CX, target, b, a);
      emit_two_qubit(out, GateKind::CX, target, a, b);
      break;
    }
    default:
      out.add(gate);
  }
}

/// Native-basis rewrite, one gate (the body of lower_single_qubit's loop).
void lower_single_gate(const Gate& gate, const Device& device, bool has_u,
                       Circuit& out) {
  if (!gate.is_unitary() || gate_info(gate.kind).arity != 1 ||
      device.is_native_kind(gate.kind)) {
    out.add(gate);
    return;
  }
  const int q = gate.qubits[0];
  if (has_u) {
    const EulerAngles angles = zyz_decompose(gate.matrix());
    out.u(angles.theta, angles.phi, angles.lambda, q);
    return;
  }
  const EulerAngles angles = yxy_decompose(gate.matrix());
  if (std::abs(angles.lambda) > kAngleTolerance) out.ry(angles.lambda, q);
  if (std::abs(angles.theta) > kAngleTolerance) out.rx(angles.theta, q);
  if (std::abs(angles.phi) > kAngleTolerance) out.ry(angles.phi, q);
}

/// The native single-qubit basis of a device with a restricted set: true
/// for U (ZYZ), false for {Rx, Ry} (YXY). Any other set is unsupported.
bool native_basis_is_u(const Device& device) {
  if (device.is_native_kind(GateKind::U)) return true;
  if (device.is_native_kind(GateKind::Rx) &&
      device.is_native_kind(GateKind::Ry)) {
    return false;
  }
  throw MappingError(
      "device native single-qubit set must include u or {rx, ry}");
}

/// Empties a scratch circuit, keeping its gate-list capacity.
void clear_gates(Circuit& circuit) {
  std::vector<Gate> gates = circuit.take_gates();
  gates.clear();
  circuit.set_gates(std::move(gates));
}

}  // namespace

Circuit lower_two_qubit(const Circuit& circuit, GateKind target,
                        bool keep_swaps) {
  if (target != GateKind::CX && target != GateKind::CZ) {
    throw MappingError("two-qubit lowering target must be CX or CZ");
  }
  // Stage A: everything into {1q, CX, CZ, SWAP}.
  Circuit intermediate(circuit.num_qubits(), circuit.name());
  StageA stage_a(intermediate);
  for (const Gate& gate : circuit) stage_a.gate(gate);

  // Stage B: convert the two-qubit kinds to the target.
  Circuit out(circuit.num_qubits(), circuit.name());
  for (const Gate& gate : intermediate) {
    lower_intermediate_gate(gate, target, keep_swaps, out);
  }
  return out;
}

SingleQubitFuser::SingleQubitFuser(int num_qubits)
    : pending_(static_cast<std::size_t>(num_qubits)) {}

void SingleQubitFuser::flush(int qubit, Circuit& out) {
  auto& entry = pending_[static_cast<std::size_t>(qubit)];
  if (!entry.has_value()) return;
  if (!is_identity_up_to_phase(*entry)) {
    const EulerAngles angles = zyz_decompose(*entry);
    out.u(angles.theta, angles.phi, angles.lambda, qubit);
  }
  entry.reset();
}

void SingleQubitFuser::push(const Gate& gate, Circuit& out) {
  if (gate.is_unitary() && gate_info(gate.kind).arity == 1) {
    auto& entry = pending_[static_cast<std::size_t>(gate.qubits[0])];
    const Matrix m = gate.matrix();
    entry = entry.has_value() ? m * *entry : m;
    return;
  }
  for (const int q : gate.qubits) flush(q, out);
  out.add(gate);
}

void SingleQubitFuser::finish(Circuit& out) {
  for (int q = 0; q < static_cast<int>(pending_.size()); ++q) flush(q, out);
}

Circuit fuse_single_qubit(const Circuit& circuit) {
  Circuit out(circuit.num_qubits(), circuit.name());
  SingleQubitFuser fuser(circuit.num_qubits());
  for (const Gate& gate : circuit) fuser.push(gate, out);
  fuser.finish(out);
  return out;
}

Circuit lower_single_qubit(const Circuit& circuit, const Device& device) {
  if (device.native_single_qubit().empty()) return circuit;  // unrestricted
  const bool has_u = native_basis_is_u(device);
  Circuit out(circuit.num_qubits(), circuit.name());
  for (const Gate& gate : circuit) {
    lower_single_gate(gate, device, has_u, out);
  }
  return out;
}

StreamingLowerer::StreamingLowerer(const Device& device, int num_qubits,
                                   bool keep_swaps)
    : device_(&device),
      target_(device.native_two_qubit()),
      keep_swaps_(keep_swaps),
      lower_single_(!device.native_single_qubit().empty()),
      fuser_(num_qubits),
      stage_a_(num_qubits, "chunk"),
      stage_b_(num_qubits, "chunk"),
      fused_(num_qubits, "chunk") {
  if (target_ != GateKind::CX && target_ != GateKind::CZ) {
    throw MappingError("two-qubit lowering target must be CX or CZ");
  }
  if (lower_single_) has_u_ = native_basis_is_u(device);
}

void StreamingLowerer::lower_fused(Circuit& fused, Circuit& out) {
  if (!lower_single_) {
    for (Gate& gate : fused.take_gates()) out.add(std::move(gate));
    return;
  }
  for (const Gate& gate : fused) {
    lower_single_gate(gate, *device_, has_u_, out);
  }
  clear_gates(fused);
}

void StreamingLowerer::lower_chunk(const std::vector<Gate>& gates,
                                   Circuit& out) {
  StageA stage_a(stage_a_);
  for (const Gate& gate : gates) stage_a.gate(gate);
  for (const Gate& gate : stage_a_) {
    lower_intermediate_gate(gate, target_, keep_swaps_, stage_b_);
  }
  clear_gates(stage_a_);
  for (const Gate& gate : stage_b_) fuser_.push(gate, fused_);
  clear_gates(stage_b_);
  lower_fused(fused_, out);
}

void StreamingLowerer::finish(Circuit& out) {
  fuser_.finish(fused_);
  lower_fused(fused_, out);
}

Circuit lower_to_device(const Circuit& circuit, const Device& device,
                        bool keep_swaps) {
  StreamingLowerer lowerer(device, circuit.num_qubits(), keep_swaps);
  Circuit out(circuit.num_qubits(), circuit.name());
  lowerer.lower_chunk(circuit.gates(), out);
  lowerer.finish(out);
  return out;
}

Circuit fix_cx_directions(const Circuit& circuit, const Device& device) {
  const CouplingGraph& coupling = device.coupling();
  Circuit out(circuit.num_qubits(), circuit.name());
  for (const Gate& gate : circuit) {
    if (!gate.is_two_qubit()) {
      out.add(gate);
      continue;
    }
    const int a = gate.qubits[0];
    const int b = gate.qubits[1];
    if (!coupling.connected(a, b)) {
      throw MappingError("two-qubit gate on unconnected qubits Q" +
                         std::to_string(a) + ", Q" + std::to_string(b) +
                         " — route the circuit first");
    }
    if (!gate.is_directional() || coupling.orientation_allowed(a, b)) {
      out.add(gate);
      continue;
    }
    if (gate.kind != GateKind::CX) {
      throw MappingError("cannot fix direction of non-CX directional gate");
    }
    // Sec. IV: "H gates are employed to flip the direction of the control
    // and target qubits": CX(a,b) = (H x H) CX(b,a) (H x H).
    out.h(a).h(b).cx(b, a).h(a).h(b);
  }
  return out;
}

Circuit expand_swaps(const Circuit& circuit, const Device& device) {
  const GateKind target = device.native_two_qubit();
  Circuit out(circuit.num_qubits(), circuit.name());
  for (const Gate& gate : circuit) {
    if (gate.kind != GateKind::SWAP) {
      out.add(gate);
      continue;
    }
    const int a = gate.qubits[0];
    const int b = gate.qubits[1];
    emit_two_qubit(out, GateKind::CX, target, a, b);
    emit_two_qubit(out, GateKind::CX, target, b, a);
    emit_two_qubit(out, GateKind::CX, target, a, b);
  }
  return out;
}

int swap_two_qubit_cost(const Device& device) {
  (void)device;
  return 3;  // three native two-qubit gates on both CX and CZ devices
}

}  // namespace qmap
