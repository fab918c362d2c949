// Reference for the exact router (route/exact.hpp): the plain Dijkstra
// search it shipped with, kept test-local as the optimality oracle.
//
//   states are (next two-qubit gate to execute, placement of program
//   qubits); a SWAP on any coupling edge costs 1000, executing the pending
//   gate costs 0, or 1 when its CX orientation must be inverted; the first
//   goal state popped is minimal for the circuit's given gate order.
//
// No heuristic, ordered maps keyed by whole placement vectors: slow, but
// obviously right. Tests compare ExactRouter's cost against it on inputs
// small enough for this search to finish in milliseconds.
#pragma once

#include <algorithm>
#include <map>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "route/router.hpp"

namespace qmap {

inline RoutingResult reference_exact_route(const Circuit& circuit,
                                           const Device& device,
                                           const Placement& initial) {
  constexpr std::size_t kMaxStates = 4'000'000;  // the router's default
  constexpr long kCostPerSwap = 1000;       // primary objective
  constexpr long kCostPerDirectionFix = 1;  // tie-breaker

  using ProgramMap = std::vector<int>;       // program qubit -> physical
  using State = std::pair<int, ProgramMap>;  // (next 2q gate index, placement)

  struct Action {
    bool is_swap = false;
    int a = -1;  // swap endpoints (physical)
    int b = -1;
  };

  check_routable(circuit, device);
  const CouplingGraph& coupling = device.coupling();
  const int n = circuit.num_qubits();

  // The two-qubit gates in program order drive the search.
  std::vector<int> two_qubit_nodes;
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    if (circuit.gate(i).is_two_qubit()) {
      two_qubit_nodes.push_back(static_cast<int>(i));
    }
  }
  const int num_targets = static_cast<int>(two_qubit_nodes.size());

  ProgramMap start(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    start[static_cast<std::size_t>(k)] = initial.phys_of_program(k);
  }

  // Dijkstra.
  std::map<State, long> dist;
  std::map<State, std::pair<State, Action>> parent;
  using QueueEntry = std::pair<long, State>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      open;
  const State initial_state{0, start};
  dist[initial_state] = 0;
  open.emplace(0, initial_state);

  State goal_state{-1, {}};
  while (!open.empty()) {
    const auto [d, state] = open.top();
    open.pop();
    const auto it = dist.find(state);
    if (it == dist.end() || it->second < d) continue;
    const auto& [gate_index, placement] = state;
    if (gate_index == num_targets) {
      goal_state = state;
      break;
    }
    if (dist.size() > kMaxStates) {
      throw MappingError("reference exact router: state budget exceeded (" +
                         std::to_string(kMaxStates) + " states)");
    }

    const auto relax = [&](State next, long cost, const Action& action) {
      const long nd = d + cost;
      const auto found = dist.find(next);
      if (found != dist.end() && found->second <= nd) return;
      dist[next] = nd;
      parent[next] = {state, action};
      open.emplace(nd, std::move(next));
    };

    // Execute the pending gate when its operands are adjacent.
    const Gate& gate =
        circuit.gate(static_cast<std::size_t>(
            two_qubit_nodes[static_cast<std::size_t>(gate_index)]));
    const int pa = placement[static_cast<std::size_t>(gate.qubits[0])];
    const int pb = placement[static_cast<std::size_t>(gate.qubits[1])];
    if (coupling.connected(pa, pb)) {
      const bool needs_fix =
          gate.is_directional() && !coupling.orientation_allowed(pa, pb);
      relax({gate_index + 1, placement},
            needs_fix ? kCostPerDirectionFix : 0,
            Action{false, -1, -1});
    }

    // Or apply any SWAP.
    for (const auto& edge : coupling.edges()) {
      ProgramMap next = placement;
      for (int& phys : next) {
        if (phys == edge.a) phys = edge.b;
        else if (phys == edge.b) phys = edge.a;
      }
      relax({gate_index, std::move(next)}, kCostPerSwap,
            Action{true, edge.a, edge.b});
    }
  }

  if (goal_state.first < 0) {
    throw MappingError("reference exact router: no solution found");
  }

  // Reconstruct the action sequence.
  std::vector<Action> actions;
  State cursor = goal_state;
  while (!(cursor == initial_state)) {
    const auto& [prev, action] = parent.at(cursor);
    actions.push_back(action);
    cursor = prev;
  }
  std::reverse(actions.begin(), actions.end());

  // Replay: interleave the original gates with the found SWAPs.
  RoutingEmitter emitter(device, initial,
                         circuit.name() + "@" + device.name());
  std::size_t next_gate = 0;  // index into circuit gates
  std::size_t target_index = 0;
  const auto emit_up_to_next_target = [&] {
    const std::size_t stop =
        target_index < two_qubit_nodes.size()
            ? static_cast<std::size_t>(two_qubit_nodes[target_index])
            : circuit.size();
    while (next_gate < stop) {
      emitter.emit_program_gate(circuit.gate(next_gate));
      ++next_gate;
    }
  };
  for (const Action& action : actions) {
    emit_up_to_next_target();
    if (action.is_swap) {
      emitter.emit_swap(action.a, action.b);
    } else {
      emitter.emit_program_gate(circuit.gate(next_gate));  // the 2q gate
      ++next_gate;
      ++target_index;
    }
  }
  emit_up_to_next_target();  // trailing single-qubit gates

  return std::move(emitter).finish(initial, 0.0);
}

}  // namespace qmap
