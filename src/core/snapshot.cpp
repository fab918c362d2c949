#include "core/snapshot.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qmap {

ExecutionSnapshot::ExecutionSnapshot(Circuit circuit, const Device& device,
                                     Placement initial)
    : circuit_(std::move(circuit)),
      device_(&device),
      initial_(initial),
      current_(std::move(initial)),
      schedule_(circuit_.num_qubits()) {
  if (circuit_.num_qubits() != device.num_qubits()) {
    throw MappingError(
        "execution snapshot expects a routed circuit on physical qubits");
  }
  ir_ = RouteIR::build(circuit_, DagMode::Sequential, arena_);
  front_.init(ir_, arena_);
  constraints_ = constraints_for_device(device);
  priority_.assign(ir_.num_gates, 0.0);
  for (std::size_t i = ir_.num_gates; i-- > 0;) {
    double downstream = 0.0;
    for (std::uint32_t e = ir_.succ_offsets[i]; e < ir_.succ_offsets[i + 1];
         ++e) {
      downstream = std::max(downstream, priority_[ir_.succ[e]]);
    }
    priority_[i] = downstream + device.cycles_for(circuit_.gate(i));
  }
  qubit_busy_.assign(static_cast<std::size_t>(circuit_.num_qubits()), 0);
}

bool ExecutionSnapshot::step() {
  if (front_.all_scheduled()) return false;
  // Highest-priority ready gate.
  std::vector<int> ready(front_.ready(), front_.ready() + front_.ready_size());
  if (ready.empty()) {
    throw MappingError("execution snapshot: no ready gate (cyclic DAG?)");
  }
  std::stable_sort(ready.begin(), ready.end(), [&](int a, int b) {
    return priority_[static_cast<std::size_t>(a)] >
           priority_[static_cast<std::size_t>(b)];
  });
  const int node = ready.front();
  const Gate& gate = circuit_.gate(static_cast<std::size_t>(node));
  const int duration = device_->cycles_for(gate);

  // Every predecessor is the last scheduled gate on one of the operands,
  // so operand availability is also dependency completion.
  int earliest = 0;
  for (const int q : gate.qubits) {
    earliest = std::max(earliest, qubit_busy_[static_cast<std::size_t>(q)]);
  }
  // Earliest feasible cycle under the control constraints.
  int start = earliest;
  const int horizon = schedule_.total_cycles() + duration + 1;
  while (true) {
    const ScheduledGate candidate{gate, start, duration};
    bool allowed = true;
    for (const auto& constraint : constraints_) {
      if (!constraint->compatible(candidate, schedule_.operations(),
                                  *device_)) {
        allowed = false;
        break;
      }
    }
    if (allowed) break;
    ++start;
    if (start > horizon + earliest) {
      throw MappingError("execution snapshot: no feasible start cycle");
    }
  }

  schedule_.add(ScheduledGate{gate, start, duration});
  for (const int q : gate.qubits) {
    qubit_busy_[static_cast<std::size_t>(q)] = start + duration;
  }
  if (gate.kind == GateKind::SWAP) {
    current_.apply_swap(gate.qubits[0], gate.qubits[1]);
  }
  front_.mark_scheduled(static_cast<std::uint32_t>(node));
  return true;
}

int ExecutionSnapshot::run_to_completion() {
  while (step()) {
  }
  return schedule_.total_cycles();
}

std::map<std::pair<int, int>, std::string>
ExecutionSnapshot::control_settings() const {
  std::map<std::pair<int, int>, std::string> out;
  if (device_->frequency_groups().empty()) return out;
  for (const ScheduledGate& op : schedule_.operations()) {
    if (!op.gate.is_unitary() || gate_info(op.gate.kind).arity != 1) continue;
    const int group = device_->frequency_group(op.gate.qubits[0]);
    if (group < 0) continue;
    for (int c = op.start_cycle; c < op.end_cycle(); ++c) {
      out[{c, group}] = op.gate.to_string().substr(
          0, op.gate.to_string().find(' '));  // pulse mnemonic only
    }
  }
  return out;
}

std::string ExecutionSnapshot::to_string() const {
  std::string out = "ExecutionSnapshot: " +
                    std::to_string(front_.num_scheduled()) + "/" +
                    std::to_string(ir_.num_gates) + " gates scheduled\n";
  out += "  ready: {";
  for (std::uint32_t k = 0; k < front_.ready_size(); ++k) {
    if (k > 0) out += ", ";
    out += std::to_string(front_.ready()[k]);
  }
  out += "}\n";
  out += "  initial placement: " + initial_.to_string() + "\n";
  out += "  current placement: " + current_.to_string() + "\n";
  out += "  partial schedule: " + std::to_string(schedule_.size()) +
         " ops, " + std::to_string(schedule_.total_cycles()) + " cycles\n";
  return out;
}

}  // namespace qmap
