#include "decompose/decomposer.hpp"

#include <bit>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "decompose/euler.hpp"
#include "decompose/peephole.hpp"

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

// Gate sinks of the per-gate stages: a Circuit validates each gate on
// add(), a gate buffer takes it as is.
void put(Circuit& out, Gate gate) { out.add(std::move(gate)); }
void put(std::vector<Gate>& out, Gate gate) { out.push_back(std::move(gate)); }

template <typename Out>
void emit_two_qubit(Out& out, GateKind kind, GateKind target, int a, int b) {
  if (kind == target) {
    put(out, make_gate(kind, {a, b}));
    return;
  }
  // CX <-> CZ via Hadamards on the target qubit: CX(a,b) = H_b CZ(a,b) H_b.
  if ((kind == GateKind::CX && target == GateKind::CZ) ||
      (kind == GateKind::CZ && target == GateKind::CX)) {
    put(out, make_gate(GateKind::H, {b}));
    put(out, make_gate(target, {a, b}));
    put(out, make_gate(GateKind::H, {b}));
    return;
  }
  throw MappingError("unsupported two-qubit lowering target");
}

/// SWAP(a,b) = CX(a,b) CX(b,a) CX(a,b), each in the target's native form.
template <typename Out>
void emit_swap(Out& out, GateKind target, int a, int b) {
  emit_two_qubit(out, GateKind::CX, target, a, b);
  emit_two_qubit(out, GateKind::CX, target, b, a);
  emit_two_qubit(out, GateKind::CX, target, a, b);
}

/// Stage B, one gate: convert CX/CZ/SWAP to the target two-qubit kind.
/// Shared by the batch pass and the streaming lowerer so the rewrite has a
/// single source of truth.
template <typename Out>
void lower_intermediate_gate(Gate gate, GateKind target, bool keep_swaps,
                             Out& out) {
  switch (gate.kind) {
    case GateKind::CX:
    case GateKind::CZ:
      emit_two_qubit(out, gate.kind, target, gate.qubits[0], gate.qubits[1]);
      break;
    case GateKind::SWAP:
      if (keep_swaps) {
        put(out, std::move(gate));
      } else {
        emit_swap(out, target, gate.qubits[0], gate.qubits[1]);
      }
      break;
    default:
      put(out, std::move(gate));
  }
}

/// expand_swaps, one gate.
template <typename Out>
void expand_swap_gate(Gate gate, GateKind target, Out& out) {
  if (gate.kind == GateKind::SWAP) {
    emit_swap(out, target, gate.qubits[0], gate.qubits[1]);
  } else {
    put(out, std::move(gate));
  }
}

/// fix_cx_directions, one gate.
template <typename Out>
void fix_direction_gate(Gate gate, const CouplingGraph& coupling, Out& out) {
  if (!gate.is_two_qubit()) {
    put(out, std::move(gate));
    return;
  }
  const int a = gate.qubits[0];
  const int b = gate.qubits[1];
  if (!coupling.connected(a, b)) {
    throw MappingError("two-qubit gate on unconnected qubits Q" +
                       std::to_string(a) + ", Q" + std::to_string(b) +
                       " — route the circuit first");
  }
  if (!gate.is_directional() || coupling.orientation_allowed(a, b)) {
    put(out, std::move(gate));
    return;
  }
  if (gate.kind != GateKind::CX) {
    throw MappingError("cannot fix direction of non-CX directional gate");
  }
  // Sec. IV: "H gates are employed to flip the direction of the control
  // and target qubits": CX(a,b) = (H x H) CX(b,a) (H x H).
  put(out, make_gate(GateKind::H, {a}));
  put(out, make_gate(GateKind::H, {b}));
  put(out, make_gate(GateKind::CX, {b, a}));
  put(out, make_gate(GateKind::H, {a}));
  put(out, make_gate(GateKind::H, {b}));
}

/// Sink that repairs CX directions on the way into a gate buffer: the
/// expand stage writes into it, so expansion and repair are one pass.
struct DirectionFixer {
  const CouplingGraph* coupling;
  std::vector<Gate>* out;
};
void put(DirectionFixer& fixer, Gate gate) {
  fix_direction_gate(std::move(gate), *fixer.coupling, *fixer.out);
}

/// Sink that feeds a SingleQubitFuser: the streamed decompose's stage B
/// writes into it.
struct FuserInput {
  SingleQubitFuser* fuser;
  std::vector<Gate>* out;
};
void put(FuserInput& input, Gate gate) {
  input.fuser->push(std::move(gate), *input.out);
}

/// The {Rx, Ry} rewrite of one single-qubit unitary: Ry Rx Ry by YXY, with
/// zero-angle rotations skipped; `emit(kind, angle)` takes each rotation
/// kept, in circuit order.
template <typename Emit>
void yxy_rotations(const Mat2& u, Emit&& emit) {
  const EulerAngles angles = yxy_decompose(u);
  if (std::abs(angles.lambda) > kAngleTolerance) {
    emit(GateKind::Ry, angles.lambda);
  }
  if (std::abs(angles.theta) > kAngleTolerance) {
    emit(GateKind::Rx, angles.theta);
  }
  if (std::abs(angles.phi) > kAngleTolerance) emit(GateKind::Ry, angles.phi);
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
    const EulerAngles angles = zyz_decompose(gate.matrix2());
    out.u(angles.theta, angles.phi, angles.lambda, q);
    return;
  }
  yxy_rotations(gate.matrix2(), [&](GateKind kind, double angle) {
    out.add(make_gate(kind, {q}, {angle}));
  });
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

/// A circuit holding `gates`, each validated by Circuit::add.
Circuit circuit_of(std::vector<Gate>& gates, int num_qubits,
                   const std::string& name) {
  Circuit out(num_qubits, name);
  out.reserve(gates.size());
  for (Gate& gate : gates) out.add(std::move(gate));
  return out;
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
  for (Gate& gate : intermediate.take_gates()) {
    lower_intermediate_gate(std::move(gate), target, keep_swaps, out);
  }
  return out;
}

SingleQubitFuser::SingleQubitFuser(int num_qubits, const Device* device)
    : pending_(static_cast<std::size_t>(num_qubits)),
      open_(static_cast<std::size_t>(num_qubits), 0),
      rotations_(device != nullptr &&
                 !device->native_single_qubit().empty() &&
                 !native_basis_is_u(*device)) {}

std::size_t SingleQubitFuser::slot_of(const MemoKey& key) {
  static_assert(std::has_single_bit(kMemoSlots));
  std::uint64_t hash = 0;
  for (const std::uint64_t word : key) {
    hash = (hash ^ word) * 0x9E3779B97F4A7C15ULL;
  }
  return static_cast<std::size_t>(hash >> (64 - std::countr_zero(kMemoSlots)));
}

std::size_t SingleQubitFuser::memo_slot(const Mat2& run) {
  return slot_of(std::bit_cast<MemoKey>(run.data));
}

void SingleQubitFuser::synthesize(const Mat2& run, MemoSlot& slot) const {
  slot.count = 0;
  if (run.equal_up_to_global_phase(Mat2::identity(), 1e-10)) return;
  const EulerAngles angles = zyz_decompose(run);
  if (!rotations_) {
    slot.angles = {angles.theta, angles.phi, angles.lambda};
    slot.count = 1;
    return;
  }
  yxy_rotations(u_matrix(angles.theta, angles.phi, angles.lambda),
                [&](GateKind kind, double angle) {
                  slot.kinds[slot.count] = kind;
                  slot.angles[slot.count] = angle;
                  ++slot.count;
                });
}

void SingleQubitFuser::flush(int qubit, std::vector<Gate>& out) {
  const auto index = static_cast<std::size_t>(qubit);
  if (!open_[index]) return;
  open_[index] = 0;
  const Mat2& run = pending_[index];
  // new[] without () leaves every member but `valid` unwritten.
  if (!memo_) memo_.reset(new MemoSlot[kMemoSlots]);
  const auto key = std::bit_cast<MemoKey>(run.data);
  MemoSlot& slot = memo_[slot_of(key)];
  if (!slot.valid || slot.key != key) {
    synthesize(run, slot);
    slot.key = key;
    slot.valid = true;
  }
  if (!rotations_) {
    if (slot.count != 0) {
      out.push_back(make_gate(GateKind::U, {qubit},
                              {slot.angles[0], slot.angles[1], slot.angles[2]}));
    }
    return;
  }
  for (std::uint8_t i = 0; i < slot.count; ++i) {
    out.push_back(make_gate(slot.kinds[i], {qubit}, {slot.angles[i]}));
  }
}

void SingleQubitFuser::push(Gate gate, std::vector<Gate>& out) {
  if (gate.is_unitary() && gate_info(gate.kind).arity == 1) {
    const auto index = static_cast<std::size_t>(gate.qubits[0]);
    const Mat2 m = gate.matrix2();
    pending_[index] = open_[index] ? m * pending_[index] : m;
    open_[index] = 1;
    return;
  }
  for (const int q : gate.qubits) flush(q, out);
  out.push_back(std::move(gate));
}

void SingleQubitFuser::finish(std::vector<Gate>& out) {
  for (int q = 0; q < static_cast<int>(pending_.size()); ++q) flush(q, out);
}

Circuit fuse_single_qubit(const Circuit& circuit) {
  std::vector<Gate> fused;
  SingleQubitFuser fuser(circuit.num_qubits());
  for (const Gate& gate : circuit) fuser.push(gate, fused);
  fuser.finish(fused);
  return circuit_of(fused, circuit.num_qubits(), circuit.name());
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
    : target_(device.native_two_qubit()),
      keep_swaps_(keep_swaps),
      fuser_(num_qubits, &device),
      stage_a_(num_qubits, "chunk") {
  if (target_ != GateKind::CX && target_ != GateKind::CZ) {
    throw MappingError("two-qubit lowering target must be CX or CZ");
  }
}

void StreamingLowerer::drain(Circuit& out) {
  for (Gate& gate : lowered_) out.add(std::move(gate));
  lowered_.clear();
}

void StreamingLowerer::lower_chunk(const std::vector<Gate>& gates,
                                   Circuit& out) {
  StageA stage_a(stage_a_);
  for (const Gate& gate : gates) stage_a.gate(gate);
  // Stage B writes straight into the fuser; the taken gate list goes back
  // empty so its capacity is recycled by the next chunk.
  std::vector<Gate> intermediate = stage_a_.take_gates();
  FuserInput fuse{&fuser_, &lowered_};
  for (Gate& gate : intermediate) {
    lower_intermediate_gate(std::move(gate), target_, keep_swaps_, fuse);
  }
  intermediate.clear();
  stage_a_.set_gates(std::move(intermediate));
  drain(out);
}

void StreamingLowerer::finish(Circuit& out) {
  fuser_.finish(lowered_);
  drain(out);
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
  Circuit out(circuit.num_qubits(), circuit.name());
  for (const Gate& gate : circuit) {
    fix_direction_gate(gate, device.coupling(), out);
  }
  return out;
}

Circuit expand_swaps(const Circuit& circuit, const Device& device) {
  Circuit out(circuit.num_qubits(), circuit.name());
  for (const Gate& gate : circuit) {
    expand_swap_gate(gate, device.native_two_qubit(), out);
  }
  return out;
}

void finalize_routed(std::vector<Gate>& gates, int num_qubits,
                     const Device& device, bool peephole,
                     bool lower_to_native) {
  const GateKind target = device.native_two_qubit();
  // expand_swaps finishes before fix_cx_directions starts, so a SWAP the
  // target cannot express fails before any direction error.
  if (target != GateKind::CX && target != GateKind::CZ) {
    for (const Gate& gate : gates) {
      if (gate.kind == GateKind::SWAP) {
        throw MappingError("unsupported two-qubit lowering target");
      }
    }
  }
  std::vector<Gate> expanded;
  expanded.reserve(gates.size() + gates.size() / 2);
  DirectionFixer fixer{&device.coupling(), &expanded};
  for (Gate& gate : gates) expand_swap_gate(std::move(gate), target, fixer);
  if (peephole) peephole_optimize(expanded, num_qubits);
  if (!lower_to_native) {
    gates = std::move(expanded);
    return;
  }
  gates.clear();
  SingleQubitFuser fuser(num_qubits, &device);
  for (Gate& gate : expanded) fuser.push(std::move(gate), gates);
  fuser.finish(gates);
}

Circuit finalize_routed(const Circuit& routed, const Device& device) {
  std::vector<Gate> gates = routed.gates();
  finalize_routed(gates, routed.num_qubits(), device);
  return circuit_of(gates, routed.num_qubits(), routed.name());
}

int swap_two_qubit_cost(const Device& device) {
  (void)device;
  return 3;  // three native two-qubit gates on both CX and CZ devices
}

}  // namespace qmap
