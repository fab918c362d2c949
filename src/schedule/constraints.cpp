#include "schedule/constraints.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qmap {
namespace {

constexpr ControlClass kAllClasses[kControlClasses] = {
    ControlClass::SingleQubit, ControlClass::Measure, ControlClass::CZ,
    ControlClass::Other};

bool same_pulse(const Gate& a, const Gate& b) {
  if (a.kind != b.kind || a.params.size() != b.params.size()) return false;
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    if (std::abs(a.params[i] - b.params[i]) > 1e-12) return false;
  }
  return true;
}

/// True when `victim` operates on one of the `parked` qubits.
bool touches(std::span<const int> parked, const Gate& victim) {
  for (const int p : parked) {
    for (const int q : victim.qubits) {
      if (p == q) return true;
    }
  }
  return false;
}

}  // namespace

std::uint32_t ControlTable::add(const Gate& gate, int start, int duration) {
  const GateInfo& info = gate_info(gate.kind);
  ControlOp op{&gate, start, duration, ControlClass::Other,
               gate.is_two_qubit(), -1, -1, 0, 0};
  if (gate.kind == GateKind::Measure) {
    op.kind = ControlClass::Measure;
    op.feedline = device_->feedline(gate.qubits[0]);
  } else if (gate.kind == GateKind::CZ) {
    op.kind = ControlClass::CZ;
    op.parked_begin = static_cast<std::uint32_t>(parked_.size());
    device_->append_parked_qubits(gate.qubits[0], gate.qubits[1], parked_);
    op.parked_end = static_cast<std::uint32_t>(parked_.size());
  } else if (info.unitary && info.arity == 1) {
    op.kind = ControlClass::SingleQubit;
    op.group = device_->frequency_group(gate.qubits[0]);
  }
  ops_.push_back(op);
  return static_cast<std::uint32_t>(ops_.size() - 1);
}

std::size_t ControlWindow::size() const {
  std::size_t total = 0;
  for (const auto& ops : ops_) total += ops.size();
  return total;
}

int ControlWindow::first_end() const {
  int first = std::numeric_limits<int>::max();
  for (const auto& ops : ops_) {
    for (const std::uint32_t op : ops) {
      first = std::min(first, (*table_)[op].end());
    }
  }
  return first;
}

void ControlWindow::drop_ended(int cycle) {
  for (auto& ops : ops_) {
    if (ops.empty()) continue;
    std::erase_if(ops, [this, cycle](std::uint32_t op) {
      return (*table_)[op].end() <= cycle;
    });
  }
}

bool admits(const ConstraintStack& constraints, std::uint32_t candidate,
            const ControlWindow& running) {
  for (const auto& constraint : constraints) {
    if (!constraint->compatible(candidate, running)) return false;
  }
  return true;
}

bool SharedMicrowaveConstraint::compatible(
    std::uint32_t candidate, const ControlWindow& running) const {
  const ControlTable& table = running.table();
  const ControlOp& op = table[candidate];
  if (op.kind != ControlClass::SingleQubit || op.group < 0) return true;
  for (const std::uint32_t index : running.of(ControlClass::SingleQubit)) {
    const ControlOp& other = table[index];
    if (other.group != op.group || !op.overlaps(other)) continue;
    // Same AWG: the waveform is shared, so concurrent gates must be the
    // identical pulse, perfectly aligned.
    if (!same_pulse(*op.gate, *other.gate) || other.start != op.start ||
        other.duration != op.duration) {
      return false;
    }
  }
  return true;
}

bool FeedlineConstraint::compatible(std::uint32_t candidate,
                                    const ControlWindow& running) const {
  const ControlTable& table = running.table();
  const ControlOp& op = table[candidate];
  if (op.kind != ControlClass::Measure || op.feedline < 0) return true;
  for (const std::uint32_t index : running.of(ControlClass::Measure)) {
    const ControlOp& other = table[index];
    // Overlapping measurements on a shared feedline must start together.
    if (other.feedline == op.feedline && op.overlaps(other) &&
        other.start != op.start) {
      return false;
    }
  }
  return true;
}

bool ParkingConstraint::compatible(std::uint32_t candidate,
                                   const ControlWindow& running) const {
  const ControlTable& table = running.table();
  const ControlOp& op = table[candidate];
  // The candidate must not touch a qubit parked by a running CZ...
  for (const std::uint32_t index : running.of(ControlClass::CZ)) {
    const ControlOp& cz = table[index];
    if (op.overlaps(cz) && touches(table.parked(cz), *op.gate)) return false;
  }
  // ...and a CZ candidate's own parked qubits must be idle for its whole
  // window.
  const std::span<const int> parked = table.parked(op);
  if (parked.empty()) return true;
  for (const ControlClass kind : kAllClasses) {
    for (const std::uint32_t index : running.of(kind)) {
      const ControlOp& other = table[index];
      if (op.overlaps(other) && touches(parked, *other.gate)) return false;
    }
  }
  return true;
}

bool TwoQubitParallelismConstraint::compatible(
    std::uint32_t candidate, const ControlWindow& running) const {
  const ControlTable& table = running.table();
  const ControlOp& op = table[candidate];
  if (!op.two_qubit) return true;
  int concurrent = 0;
  // Only CZ and Other ops span two qubits.
  for (const ControlClass kind : {ControlClass::CZ, ControlClass::Other}) {
    for (const std::uint32_t index : running.of(kind)) {
      const ControlOp& other = table[index];
      if (other.two_qubit && op.overlaps(other)) ++concurrent;
    }
  }
  return concurrent < max_concurrent_;
}

ConstraintStack surface_control_constraints() {
  ConstraintStack out;
  out.push_back(std::make_unique<SharedMicrowaveConstraint>());
  out.push_back(std::make_unique<FeedlineConstraint>());
  out.push_back(std::make_unique<ParkingConstraint>());
  return out;
}

ConstraintStack constraints_for_device(const Device& device) {
  ConstraintStack out;
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
