#include "schedule/constraints.hpp"

#include <cmath>

namespace qmap {
namespace {

bool is_single_qubit_unitary(const Gate& gate) {
  return gate.is_unitary() && gate_info(gate.kind).arity == 1;
}

bool same_pulse(const Gate& a, const Gate& b) {
  if (a.kind != b.kind || a.params.size() != b.params.size()) return false;
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    if (std::abs(a.params[i] - b.params[i]) > 1e-12) return false;
  }
  return true;
}

}  // namespace

bool SharedMicrowaveConstraint::compatible(
    const ScheduledGate& candidate, const std::vector<ScheduledGate>& running,
    const Device& device) const {
  if (!is_single_qubit_unitary(candidate.gate)) return true;
  if (device.frequency_groups().empty()) return true;
  const int group = device.frequency_group(candidate.gate.qubits[0]);
  if (group < 0) return true;
  for (const ScheduledGate& other : running) {
    if (!candidate.overlaps(other)) continue;
    if (!is_single_qubit_unitary(other.gate)) continue;
    if (device.frequency_group(other.gate.qubits[0]) != group) continue;
    // Same AWG: the waveform is shared, so concurrent gates must be the
    // identical pulse, perfectly aligned.
    if (!same_pulse(candidate.gate, other.gate) ||
        other.start_cycle != candidate.start_cycle ||
        other.duration_cycles != candidate.duration_cycles) {
      return false;
    }
  }
  return true;
}

bool FeedlineConstraint::compatible(const ScheduledGate& candidate,
                                    const std::vector<ScheduledGate>& running,
                                    const Device& device) const {
  if (candidate.gate.kind != GateKind::Measure) return true;
  if (device.feedlines().empty()) return true;
  const int line = device.feedline(candidate.gate.qubits[0]);
  if (line < 0) return true;
  for (const ScheduledGate& other : running) {
    if (other.gate.kind != GateKind::Measure) continue;
    if (!candidate.overlaps(other)) continue;
    if (device.feedline(other.gate.qubits[0]) != line) continue;
    // Overlapping measurements on a shared feedline must start together.
    if (other.start_cycle != candidate.start_cycle) return false;
  }
  return true;
}

bool ParkingConstraint::compatible(const ScheduledGate& candidate,
                                   const std::vector<ScheduledGate>& running,
                                   const Device& device) const {
  if (device.frequency_groups().empty()) return true;
  // True when `op` is a CZ that parks a qubit `victim` operates on.
  const auto parks_any = [&](const ScheduledGate& op,
                             const ScheduledGate& victim) {
    if (op.gate.kind != GateKind::CZ) return false;
    for (const int q : victim.gate.qubits) {
      if (device.parks(op.gate.qubits[0], op.gate.qubits[1], q)) return true;
    }
    return false;
  };
  // The candidate must not touch a qubit parked by a running CZ, and a CZ
  // candidate's own parked qubits must be idle for its whole window.
  for (const ScheduledGate& other : running) {
    if (!candidate.overlaps(other)) continue;
    if (parks_any(other, candidate) || parks_any(candidate, other)) {
      return false;
    }
  }
  return true;
}

bool TwoQubitParallelismConstraint::compatible(
    const ScheduledGate& candidate, const std::vector<ScheduledGate>& running,
    const Device& device) const {
  (void)device;
  if (!candidate.gate.is_two_qubit()) return true;
  int concurrent = 0;
  for (const ScheduledGate& other : running) {
    if (!other.gate.is_two_qubit()) continue;
    if (candidate.overlaps(other)) ++concurrent;
  }
  return concurrent < max_concurrent_;
}

std::vector<std::unique_ptr<ResourceConstraint>>
surface_control_constraints() {
  std::vector<std::unique_ptr<ResourceConstraint>> out;
  out.push_back(std::make_unique<SharedMicrowaveConstraint>());
  out.push_back(std::make_unique<FeedlineConstraint>());
  out.push_back(std::make_unique<ParkingConstraint>());
  return out;
}

std::vector<std::unique_ptr<ResourceConstraint>> constraints_for_device(
    const Device& device) {
  std::vector<std::unique_ptr<ResourceConstraint>> out;
  if (!device.frequency_groups().empty() || !device.feedlines().empty()) {
    out = surface_control_constraints();
  }
  if (device.max_parallel_two_qubit() > 0) {
    out.push_back(std::make_unique<TwoQubitParallelismConstraint>(
        device.max_parallel_two_qubit()));
  }
  return out;
}

}  // namespace qmap
