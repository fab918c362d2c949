#include "core/snapshot.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "schedule/schedulers.hpp"

namespace qmap {

ExecutionSnapshot::ExecutionSnapshot(Circuit circuit, const Device& device,
                                     Placement initial)
    : circuit_(std::move(circuit)),
      initial_(initial),
      current_(std::move(initial)),
      schedule_(circuit_.num_qubits()),
      table_(device),
      scheduled_(table_) {
  if (circuit_.num_qubits() != device.num_qubits()) {
    throw MappingError(
        "execution snapshot expects a routed circuit on physical qubits");
  }
  ir_ = RouteIR::build(circuit_, DagMode::Sequential, arena_);
  front_.init(ir_, arena_);
  constraints_ = constraints_for_device(device);
  table_.reserve(circuit_.size());
  for (const Gate& gate : circuit_) {
    table_.add(gate, 0, device.cycles_for(gate));
  }
  rank_ = critical_path_ranks(ir_, table_);
  qubit_busy_.assign(static_cast<std::size_t>(circuit_.num_qubits()), 0);
}

bool ExecutionSnapshot::step() {
  if (front_.all_scheduled()) return false;
  if (front_.ready_size() == 0) {
    throw MappingError("execution snapshot: no ready gate (cyclic DAG?)");
  }
  // Highest-ranked ready gate.
  const std::uint32_t node = *std::min_element(
      front_.ready(), front_.ready() + front_.ready_size(),
      [this](std::uint32_t a, std::uint32_t b) { return rank_[a] < rank_[b]; });
  const Gate& gate = *table_[node].gate;
  const int duration = table_[node].duration;

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
    table_.set_start(node, start);
    if (admits(constraints_, node, scheduled_)) break;
    ++start;
    if (start > horizon + earliest) {
      throw MappingError("execution snapshot: no feasible start cycle");
    }
  }

  schedule_.add(ScheduledGate{gate, start, duration});
  scheduled_.add(node);
  for (const int q : gate.qubits) {
    qubit_busy_[static_cast<std::size_t>(q)] = start + duration;
  }
  if (gate.kind == GateKind::SWAP) {
    current_.apply_swap(gate.qubits[0], gate.qubits[1]);
  }
  front_.mark_scheduled(node);
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
  for (const std::uint32_t node : scheduled_.of(ControlClass::SingleQubit)) {
    const ControlOp& op = table_[node];
    if (op.group < 0) continue;
    const std::string text = op.gate->to_string();
    for (int c = op.start; c < op.end(); ++c) {
      out[{c, op.group}] = text.substr(0, text.find(' '));  // pulse mnemonic
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
