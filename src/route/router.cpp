#include "route/router.hpp"

#include <cstdio>

#include "common/error.hpp"

namespace qmap {

namespace {

// Gate construction for the emit hot path: the emitter's own adjacency /
// occupancy checks subsume make_gate's and Circuit::add's validation, so
// these build the Gate directly and append unchecked. One allocation per
// stored gate (the operand vector) is the floor imposed by Gate's layout.
void push1(Circuit& circuit, GateKind kind, int q) {
  Gate gate;
  gate.kind = kind;
  gate.qubits = {q};
  circuit.add_unchecked(std::move(gate));
}

void push2(Circuit& circuit, GateKind kind, int a, int b) {
  Gate gate;
  gate.kind = kind;
  gate.qubits = {a, b};
  circuit.add_unchecked(std::move(gate));
}

}  // namespace

std::string RoutingResult::to_string() const {
  char buffer[200];
  std::snprintf(buffer, sizeof(buffer),
                "swaps=%zu moves=%zu bridges=%zu direction_fixes=%zu "
                "gates=%zu runtime=%.3fms",
                added_swaps, added_moves, added_bridges, direction_fixes,
                circuit.size(), runtime_ms);
  return buffer;
}

StreamRouteStats Router::route_stream(GateSource& /*source*/,
                                      const Device& /*device*/,
                                      const Placement& /*initial*/,
                                      GateSink& /*sink*/,
                                      const StreamRouteOptions& /*options*/) {
  throw MappingError("router '" + name() +
                     "' does not support streaming; materialize the circuit "
                     "and call route()");
}

RoutingEmitter::RoutingEmitter(const Device& device, Placement placement,
                               std::string circuit_name)
    : device_(&device),
      placement_(std::move(placement)),
      circuit_(device.num_qubits(), std::move(circuit_name)) {}

void RoutingEmitter::emit_mapped(Gate physical) {
  for (int& q : physical.qubits) q = placement_.phys_of_program(q);
  if (!physical.is_two_qubit()) {
    circuit_.add_unchecked(std::move(physical));
    return;
  }
  const int a = physical.qubits[0];
  const int b = physical.qubits[1];
  const CouplingGraph& coupling = device_->coupling();
  if (!coupling.connected(a, b)) {
    throw MappingError("router bug: emitting two-qubit gate on non-adjacent "
                       "physical qubits Q" +
                       std::to_string(a) + ", Q" + std::to_string(b));
  }
  if (physical.is_directional() && !coupling.orientation_allowed(a, b)) {
    if (physical.kind != GateKind::CX) {
      throw MappingError("cannot invert direction of non-CX gate");
    }
    // Sec. IV: flip control/target with Hadamards.
    push1(circuit_, GateKind::H, a);
    push1(circuit_, GateKind::H, b);
    push2(circuit_, GateKind::CX, b, a);
    push1(circuit_, GateKind::H, a);
    push1(circuit_, GateKind::H, b);
    ++direction_fixes_;
    return;
  }
  circuit_.add_unchecked(std::move(physical));
}

void RoutingEmitter::emit_swap(int phys_a, int phys_b) {
  if (!device_->coupling().connected(phys_a, phys_b)) {
    throw MappingError("router bug: SWAP on non-adjacent physical qubits Q" +
                       std::to_string(phys_a) + ", Q" +
                       std::to_string(phys_b));
  }
  push2(circuit_, GateKind::SWAP, phys_a, phys_b);
  placement_.apply_swap(phys_a, phys_b);
  ++added_swaps_;
}

void RoutingEmitter::emit_move(int phys_from, int phys_to) {
  if (!device_->supports_shuttling()) {
    throw MappingError("router bug: Move on a device without shuttling");
  }
  if (!device_->coupling().connected(phys_from, phys_to)) {
    throw MappingError("router bug: Move on non-adjacent sites Q" +
                       std::to_string(phys_from) + ", Q" +
                       std::to_string(phys_to));
  }
  if (placement_.program_at_phys(phys_to) != -1) {
    throw MappingError("router bug: Move target Q" + std::to_string(phys_to) +
                       " is occupied");
  }
  circuit_.add(make_gate(GateKind::Move, {phys_from, phys_to}));
  placement_.apply_swap(phys_from, phys_to);
  ++added_moves_;
}

void RoutingEmitter::emit_bridge(int phys_c, int phys_m, int phys_t) {
  const CouplingGraph& coupling = device_->coupling();
  if (phys_c == phys_t || phys_c == phys_m || phys_m == phys_t) {
    throw MappingError("router bug: BRIDGE qubits Q" + std::to_string(phys_c) +
                       ", Q" + std::to_string(phys_m) + ", Q" +
                       std::to_string(phys_t) + " are not distinct");
  }
  if (!coupling.connected(phys_c, phys_m) ||
      !coupling.connected(phys_m, phys_t)) {
    throw MappingError("router bug: BRIDGE leg on non-adjacent physical "
                       "qubits (Q" +
                       std::to_string(phys_c) + " - Q" +
                       std::to_string(phys_m) + " - Q" +
                       std::to_string(phys_t) + ")");
  }
  if (coupling.connected(phys_c, phys_t)) {
    throw MappingError("router bug: BRIDGE between adjacent qubits Q" +
                       std::to_string(phys_c) + ", Q" +
                       std::to_string(phys_t) + "; emit the CX directly");
  }
  // CX(c,t) = CX(c,m) CX(m,t) CX(c,m) CX(m,t); identity on m.
  emit_physical_cx(phys_c, phys_m);
  emit_physical_cx(phys_m, phys_t);
  emit_physical_cx(phys_c, phys_m);
  emit_physical_cx(phys_m, phys_t);
  ++added_bridges_;
}

void RoutingEmitter::emit_physical_cx(int phys_control, int phys_target) {
  if (!device_->coupling().orientation_allowed(phys_control, phys_target)) {
    // Sec. IV: flip control/target with Hadamards.
    push1(circuit_, GateKind::H, phys_control);
    push1(circuit_, GateKind::H, phys_target);
    push2(circuit_, GateKind::CX, phys_target, phys_control);
    push1(circuit_, GateKind::H, phys_control);
    push1(circuit_, GateKind::H, phys_target);
    ++direction_fixes_;
    return;
  }
  push2(circuit_, GateKind::CX, phys_control, phys_target);
}

void RoutingEmitter::spill_if_needed() {
  if (sink_ == nullptr || circuit_.size() < spill_threshold_) return;
  spill_all();
}

void RoutingEmitter::spill_all() {
  if (sink_ == nullptr || circuit_.empty()) return;
  // take / push / give back: put_chunk moves the gates out but leaves the
  // vector's capacity, so the emitter's output buffer is recycled and the
  // steady state allocates nothing.
  spill_buf_ = circuit_.take_gates();
  spilled_gates_ += spill_buf_.size();
  sink_->put_chunk(spill_buf_);
  spill_buf_.clear();
  circuit_.set_gates(std::move(spill_buf_));
}

RoutingResult RoutingEmitter::finish(const Placement& initial,
                                     double runtime_ms) && {
  RoutingResult result;
  result.circuit = std::move(circuit_);
  result.initial = initial;
  result.final = std::move(placement_);
  result.added_swaps = added_swaps_;
  result.added_moves = added_moves_;
  result.added_bridges = added_bridges_;
  result.direction_fixes = direction_fixes_;
  result.runtime_ms = runtime_ms;
  return result;
}

bool respects_coupling(const Circuit& circuit, const Device& device) {
  const CouplingGraph& coupling = device.coupling();
  for (const Gate& gate : circuit) {
    if (!gate.is_two_qubit()) continue;
    const int a = gate.qubits[0];
    const int b = gate.qubits[1];
    if (!coupling.connected(a, b)) return false;
    if (gate.is_directional() && !coupling.orientation_allowed(a, b)) {
      return false;
    }
  }
  return true;
}

void check_routable(const Circuit& circuit, const Device& device) {
  if (circuit.num_qubits() > device.num_qubits()) {
    throw MappingError("circuit has " + std::to_string(circuit.num_qubits()) +
                       " qubits; device '" + device.name() + "' has " +
                       std::to_string(device.num_qubits()));
  }
  for (const Gate& gate : circuit) {
    if (gate.kind == GateKind::Barrier) continue;
    if (gate.qubits.size() > 2) {
      throw MappingError(
          "circuit contains a gate of arity > 2; run gate decomposition "
          "before routing");
    }
  }
  if (!device.artifacts()->connected()) {
    throw MappingError("device coupling graph is disconnected");
  }
}

}  // namespace qmap
