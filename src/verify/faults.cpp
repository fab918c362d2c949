#include "verify/faults.hpp"

#include <utility>

#include "common/error.hpp"
#include "decompose/decomposer.hpp"
#include "verify/shrink.hpp"

namespace qmap::verify {

std::string fault_name(FaultInjection fault) {
  switch (fault) {
    case FaultInjection::None: return "none";
    case FaultInjection::DropLastSwap: return "drop-last-swap";
    case FaultInjection::FlipLastCx: return "flip-last-cx";
  }
  return "none";
}

FaultInjection fault_from_name(const std::string& name) {
  if (name == "none") return FaultInjection::None;
  if (name == "drop-last-swap") return FaultInjection::DropLastSwap;
  if (name == "flip-last-cx") return FaultInjection::FlipLastCx;
  throw MappingError("unknown fault injection: '" + name +
                     "' (valid: none, drop-last-swap, flip-last-cx)");
}

bool inject_fault(CompilationResult& result, const Device& device,
                  FaultInjection fault) {
  if (fault == FaultInjection::None) return false;
  if (fault == FaultInjection::DropLastSwap) {
    const Circuit& routed = result.routing.circuit;
    std::size_t last_swap = routed.size();
    for (std::size_t i = routed.size(); i-- > 0;) {
      if (routed.gate(i).kind == GateKind::SWAP) {
        last_swap = i;
        break;
      }
    }
    if (last_swap == routed.size()) return false;  // no SWAP to drop
    Circuit sabotaged =
        finalize_routed(remove_gates(routed, {last_swap}), device);
    sabotaged.set_name(result.final_circuit.name());
    result.final_circuit = std::move(sabotaged);
  } else if (fault == FaultInjection::FlipLastCx) {
    Circuit flipped(result.final_circuit.num_qubits(),
                    result.final_circuit.name());
    flipped.declare_cbits(result.final_circuit.num_cbits());
    std::size_t last_cx = result.final_circuit.size();
    for (std::size_t i = result.final_circuit.size(); i-- > 0;) {
      if (result.final_circuit.gate(i).kind == GateKind::CX) {
        last_cx = i;
        break;
      }
    }
    if (last_cx == result.final_circuit.size()) return false;  // no CX
    for (std::size_t i = 0; i < result.final_circuit.size(); ++i) {
      Gate gate = result.final_circuit.gate(i);
      if (i == last_cx) std::swap(gate.qubits[0], gate.qubits[1]);
      flipped.add(std::move(gate));
    }
    result.final_circuit = std::move(flipped);
  }
  result.schedule = Schedule();
  result.scheduled_cycles = 0;
  return true;
}

}  // namespace qmap::verify
