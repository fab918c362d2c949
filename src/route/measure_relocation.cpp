#include "route/measure_relocation.hpp"

#include <limits>

#include "common/error.hpp"

namespace qmap {

Circuit relocate_measurements(const Circuit& circuit, const Device& device,
                              Placement& placement_io) {
  const int m = device.num_qubits();
  if (circuit.num_qubits() != m) {
    throw MappingError(
        "relocate_measurements expects a routed circuit on physical qubits");
  }
  // Fast path: everything measurable.
  if (device.measurable_mask().empty()) return circuit;

  // Defer terminal measurements to the end of the gate list: a measurement
  // with no later gate on its qubit commutes to the end trivially, and
  // routers legitimately emit measurements early once a qubit's work is
  // done. After this reordering every relocation happens in the trailing
  // measurement block.
  std::vector<bool> qubit_used_later(static_cast<std::size_t>(m), false);
  std::vector<char> deferred(circuit.size(), 0);
  for (std::size_t i = circuit.size(); i-- > 0;) {
    const Gate& gate = circuit.gate(i);
    if (gate.kind == GateKind::Measure &&
        !qubit_used_later[static_cast<std::size_t>(gate.qubits[0])]) {
      deferred[i] = 1;
      continue;  // a deferred measure does not block earlier deferrals
    }
    for (const int q : gate.qubits) {
      qubit_used_later[static_cast<std::size_t>(q)] = true;
    }
  }
  // cur[p] = current physical location of the wire the input circuit
  // addresses as p (identity until relocation SWAPs are inserted).
  std::vector<int> cur(static_cast<std::size_t>(m));
  std::vector<int> cur_inverse(static_cast<std::size_t>(m));
  for (int p = 0; p < m; ++p) {
    cur[static_cast<std::size_t>(p)] = p;
    cur_inverse[static_cast<std::size_t>(p)] = p;
  }
  std::vector<bool> used(static_cast<std::size_t>(m), false);

  const ArchArtifacts& artifacts = *device.artifacts();

  Circuit out(m, circuit.name());
  out.reserve(circuit.size());
  bool relocated = false;
  const auto emit_swap = [&](int a, int b) {
    out.swap(a, b);
    placement_io.apply_swap(a, b);
    const int wire_a = cur_inverse[static_cast<std::size_t>(a)];
    const int wire_b = cur_inverse[static_cast<std::size_t>(b)];
    std::swap(cur[static_cast<std::size_t>(wire_a)],
              cur[static_cast<std::size_t>(wire_b)]);
    std::swap(cur_inverse[static_cast<std::size_t>(a)],
              cur_inverse[static_cast<std::size_t>(b)]);
  };

  const auto relocate = [&](const Gate& gate) {
    Gate remapped = gate;
    for (int& q : remapped.qubits) q = cur[static_cast<std::size_t>(q)];
    if (remapped.kind != GateKind::Measure) {
      if (relocated && remapped.kind != GateKind::Barrier) {
        throw MappingError(
            "relocate_measurements: unitary gate after a relocated "
            "measurement — relocation supports terminal measurements only");
      }
      out.add(std::move(remapped));
      return;
    }
    const int location = remapped.qubits[0];
    if (device.measurable(location) &&
        !used[static_cast<std::size_t>(location)]) {
      used[static_cast<std::size_t>(location)] = true;
      out.add(std::move(remapped));
      return;
    }
    // Find the nearest free measurable qubit.
    int best = -1;
    int best_distance = std::numeric_limits<int>::max();
    const int* distance_row =
        artifacts.distance_data() +
        static_cast<std::size_t>(location) * static_cast<std::size_t>(m);
    for (int candidate = 0; candidate < m; ++candidate) {
      if (!device.measurable(candidate) ||
          used[static_cast<std::size_t>(candidate)]) {
        continue;
      }
      const int d = distance_row[candidate];
      if (d >= 0 && d < best_distance) {
        best_distance = d;
        best = candidate;
      }
    }
    if (best < 0) {
      throw MappingError(
          "relocate_measurements: no reachable free measurable qubit for Q" +
          std::to_string(location));
    }
    const std::vector<int> path = artifacts.shortest_path(location, best);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      emit_swap(path[i], path[i + 1]);
    }
    relocated = true;
    used[static_cast<std::size_t>(best)] = true;
    out.measure(best, remapped.cbit);
  };
  // The reordered program: every non-deferred gate, then the deferred
  // measurements, each in its original order.
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    if (!deferred[i]) relocate(circuit.gate(i));
  }
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    if (deferred[i]) relocate(circuit.gate(i));
  }
  return out;
}

}  // namespace qmap
