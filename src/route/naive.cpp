#include "route/naive.hpp"

#include <chrono>

#include "common/error.hpp"

namespace qmap {

RoutingResult NaiveRouter::route(const Circuit& circuit, const Device& device,
                                 const Placement& initial) {
  const auto start_time = std::chrono::steady_clock::now();
  check_routable(circuit, device);
  RoutingEmitter emitter(device, initial, circuit.name() + "@" + device.name());
  for (const Gate& gate : circuit) {
    check_cancelled();
    if (gate.is_two_qubit()) {
      const int pa = emitter.placement().phys_of_program(gate.qubits[0]);
      const int pb = emitter.placement().phys_of_program(gate.qubits[1]);
      if (!device.coupling().connected(pa, pb)) {
        const std::vector<int> path = device.artifacts()->shortest_path(pa, pb);
        if (path.empty()) {
          throw MappingError("no path between Q" + std::to_string(pa) +
                             " and Q" + std::to_string(pb));
        }
        // Walk the first operand down the path until adjacent to the last
        // hop.
        for (std::size_t i = 0; i + 2 < path.size(); ++i) {
          emitter.emit_swap(path[i], path[i + 1]);
        }
      }
    }
    emitter.emit_program_gate(gate);
  }
  const double runtime_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_time)
          .count();
  return std::move(emitter).finish(initial, runtime_ms);
}

}  // namespace qmap
