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
  dag_ = std::make_unique<DependencyDag>(circuit_);
  constraints_ = constraints_for_device(device);
  priority_.assign(dag_->num_nodes(), 0.0);
  for (std::size_t i = dag_->num_nodes(); i-- > 0;) {
    double downstream = 0.0;
    for (const int succ : dag_->successors(static_cast<int>(i))) {
      downstream =
          std::max(downstream, priority_[static_cast<std::size_t>(succ)]);
    }
    priority_[i] = downstream + device.cycles_for(circuit_.gate(i));
  }
  end_cycle_.assign(dag_->num_nodes(), 0);
  qubit_busy_.assign(static_cast<std::size_t>(circuit_.num_qubits()), 0);
}

bool ExecutionSnapshot::step() {
  if (dag_->all_scheduled()) return false;
  // Highest-priority ready gate.
  std::vector<int> ready = dag_->ready();
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

  int earliest = 0;
  for (const int pred : dag_->predecessors(node)) {
    earliest = std::max(earliest, end_cycle_[static_cast<std::size_t>(pred)]);
  }
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
  end_cycle_[static_cast<std::size_t>(node)] = start + duration;
  for (const int q : gate.qubits) {
    qubit_busy_[static_cast<std::size_t>(q)] = start + duration;
  }
  if (gate.kind == GateKind::SWAP) {
    current_.apply_swap(gate.qubits[0], gate.qubits[1]);
  }
  dag_->mark_scheduled(node);
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
                    std::to_string(dag_->num_scheduled()) + "/" +
                    std::to_string(dag_->num_nodes()) + " gates scheduled\n";
  out += "  ready: {";
  bool first = true;
  for (const int node : dag_->ready()) {
    if (!first) out += ", ";
    first = false;
    out += std::to_string(node);
  }
  out += "}\n";
  out += "  initial placement: " + initial_.to_string() + "\n";
  out += "  current placement: " + current_.to_string() + "\n";
  out += "  partial schedule: " + std::to_string(schedule_.size()) +
         " ops, " + std::to_string(schedule_.total_cycles()) + " cycles\n";
  return out;
}

}  // namespace qmap
