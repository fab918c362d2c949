#include "route/shuttle.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <span>

#include "common/error.hpp"
#include "route/route_ir.hpp"

namespace qmap {

RoutingResult ShuttleRouter::route(const Circuit& circuit,
                                   const Device& device,
                                   const Placement& initial) {
  const auto start_time = std::chrono::steady_clock::now();
  check_routable(circuit, device);
  if (!device.supports_shuttling()) {
    throw MappingError("shuttle router requires a device with shuttling "
                       "support (set_supports_shuttling)");
  }
  const CouplingGraph& coupling = device.coupling();
  RouteArena& arena = RouteArena::scratch();
  const ArenaScope scope(arena);
  const RouteIR ir = RouteIR::build(circuit, DagMode::Sequential, arena);
  FrontLayer layer(ir, arena);
  // Ready-list snapshot (mark_scheduled mutates the list) and front.
  std::uint32_t* const ready_buf = arena.alloc<std::uint32_t>(ir.num_gates);
  std::uint32_t* const front_buf = arena.alloc<std::uint32_t>(ir.num_two_qubit);
  RoutingEmitter emitter(device, initial,
                         circuit.name() + "@" + device.name());

  std::vector<double> decay(static_cast<std::size_t>(device.num_qubits()),
                            1.0);
  int actions_since_reset = 0;
  int actions_since_progress = 0;
  const int stall_limit = 10 * std::max(1, device.num_qubits());

  const auto executable = [&](int node) {
    const Gate& gate = circuit.gate(static_cast<std::size_t>(node));
    if (!gate.is_two_qubit()) return true;
    return coupling.connected(
        emitter.placement().phys_of_program(gate.qubits[0]),
        emitter.placement().phys_of_program(gate.qubits[1]));
  };

  const auto flush_executable = [&] {
    bool progressed = true;
    bool any = false;
    while (progressed) {
      progressed = false;
      const std::uint32_t count = layer.ready_size();
      std::copy_n(layer.ready(), count, ready_buf);
      for (std::uint32_t k = 0; k < count; ++k) {
        const std::uint32_t node = ready_buf[k];
        if (!executable(static_cast<int>(node))) continue;
        emitter.emit_program_gate(circuit.gate(node));
        layer.mark_scheduled(node);
        progressed = true;
        any = true;
      }
    }
    return any;
  };

  const auto gate_distance = [&](int node, const Placement& placement) {
    const Gate& gate = circuit.gate(static_cast<std::size_t>(node));
    return phys_distance(device, placement.phys_of_program(gate.qubits[0]),
                         placement.phys_of_program(gate.qubits[1]));
  };

  while (!layer.all_scheduled()) {
    if (flush_executable()) {
      actions_since_progress = 0;
      continue;
    }
    const std::span<const std::uint32_t> front(
        front_buf, layer.ready_two_qubit(front_buf));
    if (front.empty()) {
      throw MappingError("shuttle router: stalled");
    }
    std::vector<int> extended;
    for (std::size_t i = 0;
         i < circuit.size() &&
         extended.size() < static_cast<std::size_t>(options_.extended_window);
         ++i) {
      const int node = static_cast<int>(i);
      if (layer.scheduled(static_cast<std::uint32_t>(i))) continue;
      if (std::find(front.begin(), front.end(), node) != front.end()) continue;
      if (circuit.gate(i).is_two_qubit()) extended.push_back(node);
    }

    std::vector<bool> relevant(static_cast<std::size_t>(device.num_qubits()),
                               false);
    for (const int node : front) {
      const Gate& gate = circuit.gate(static_cast<std::size_t>(node));
      for (const int q : gate.qubits) {
        relevant[static_cast<std::size_t>(
            emitter.placement().phys_of_program(q))] = true;
      }
    }

    // Candidate actions: SWAP any relevant edge, or Move the occupant of a
    // relevant site into an adjacent empty site.
    double best_score = std::numeric_limits<double>::infinity();
    int best_a = -1;
    int best_b = -1;
    bool best_is_move = false;
    const auto consider = [&](int a, int b, bool is_move) {
      Placement trial = emitter.placement();
      trial.apply_swap(a, b);
      double front_term = 0.0;
      for (const int node : front) front_term += gate_distance(node, trial);
      front_term /= static_cast<double>(front.size());
      double extended_term = 0.0;
      if (!extended.empty()) {
        for (const int node : extended) {
          extended_term += gate_distance(node, trial);
        }
        extended_term /= static_cast<double>(extended.size());
      }
      const double decay_factor = std::max(
          decay[static_cast<std::size_t>(a)],
          decay[static_cast<std::size_t>(b)]);
      const double action_cost =
          is_move ? options_.move_cost : options_.swap_cost;
      const double score =
          decay_factor *
          (front_term + options_.extended_weight * extended_term +
           options_.action_cost_weight * action_cost);
      if (score < best_score) {
        best_score = score;
        best_a = a;
        best_b = b;
        best_is_move = is_move;
      }
    };
    for (const auto& edge : coupling.edges()) {
      if (!relevant[static_cast<std::size_t>(edge.a)] &&
          !relevant[static_cast<std::size_t>(edge.b)]) {
        continue;
      }
      const bool a_free = emitter.placement().program_at_phys(edge.a) == -1;
      const bool b_free = emitter.placement().program_at_phys(edge.b) == -1;
      if (b_free && !a_free) {
        consider(edge.a, edge.b, /*is_move=*/true);
      } else if (a_free && !b_free) {
        consider(edge.b, edge.a, /*is_move=*/true);
      } else if (!a_free && !b_free) {
        consider(edge.a, edge.b, /*is_move=*/false);
      }
      // Two free sites: moving vacuum around is useless.
    }
    if (best_a < 0) throw MappingError("shuttle router: no candidate action");

    ++actions_since_progress;
    if (actions_since_progress > stall_limit) {
      const Gate& gate = circuit.gate(static_cast<std::size_t>(front.front()));
      const int pa = emitter.placement().phys_of_program(gate.qubits[0]);
      const int pb = emitter.placement().phys_of_program(gate.qubits[1]);
      const std::vector<int> path = phys_shortest_path(device, pa, pb);
      for (std::size_t i = 0; i + 2 < path.size(); ++i) {
        // Prefer moves along the forced path too.
        if (emitter.placement().program_at_phys(path[i + 1]) == -1) {
          emitter.emit_move(path[i], path[i + 1]);
        } else {
          emitter.emit_swap(path[i], path[i + 1]);
        }
      }
      actions_since_progress = 0;
      continue;
    }

    if (best_is_move) {
      emitter.emit_move(best_a, best_b);
    } else {
      emitter.emit_swap(best_a, best_b);
    }
    decay[static_cast<std::size_t>(best_a)] += options_.decay_increment;
    decay[static_cast<std::size_t>(best_b)] += options_.decay_increment;
    if (++actions_since_reset >= options_.decay_reset_interval) {
      std::fill(decay.begin(), decay.end(), 1.0);
      actions_since_reset = 0;
    }
  }

  const double runtime_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_time)
          .count();
  return std::move(emitter).finish(initial, runtime_ms);
}

}  // namespace qmap
