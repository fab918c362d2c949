#include "ir/metrics.hpp"

#include <algorithm>
#include <vector>

namespace qmap {

namespace {

// Longest weighted path through the circuit's dependency order, as one
// per-qubit availability sweep: a gate starts once every operand is free
// and frees them all at start + weight(gate). This is the critical path of
// the Sequential dependency DAG, whose predecessors are exactly the last
// earlier gate on each operand.
template <typename Weight>
double critical_path(const Circuit& circuit, const Weight& weight) {
  std::vector<double> available(
      static_cast<std::size_t>(circuit.num_qubits()), 0.0);
  double best = 0.0;
  for (const Gate& gate : circuit) {
    double start = 0.0;
    for (const int q : gate.qubits) {
      start = std::max(start, available[static_cast<std::size_t>(q)]);
    }
    const double finish = start + weight(gate);
    for (const int q : gate.qubits) {
      available[static_cast<std::size_t>(q)] = finish;
    }
    best = std::max(best, finish);
  }
  return best;
}

}  // namespace

std::string CircuitMetrics::to_string() const {
  std::string out;
  out += "gates=" + std::to_string(total_gates);
  out += " (1q=" + std::to_string(single_qubit_gates);
  out += ", 2q=" + std::to_string(two_qubit_gates);
  out += ", swap=" + std::to_string(swap_gates);
  out += ", cx=" + std::to_string(cx_gates);
  out += ", cz=" + std::to_string(cz_gates);
  out += ", h=" + std::to_string(h_gates);
  out += ", meas=" + std::to_string(measurements);
  out += ") depth=" + std::to_string(depth);
  out += " 2q-depth=" + std::to_string(two_qubit_depth);
  return out;
}

CircuitMetrics compute_metrics(const Circuit& circuit) {
  CircuitMetrics m;
  for (const Gate& gate : circuit) {
    if (gate.kind == GateKind::Barrier) continue;
    ++m.total_gates;
    if (gate.kind == GateKind::Measure) {
      ++m.measurements;
      continue;
    }
    const int arity = gate_info(gate.kind).arity;
    if (arity == 1) ++m.single_qubit_gates;
    if (arity == 2) ++m.two_qubit_gates;
    switch (gate.kind) {
      case GateKind::SWAP: ++m.swap_gates; break;
      case GateKind::CX: ++m.cx_gates; break;
      case GateKind::CZ: ++m.cz_gates; break;
      case GateKind::H: ++m.h_gates; break;
      default: break;
    }
  }
  m.depth = static_cast<int>(
      critical_path(circuit,
                    [](const Gate& gate) {
                      return gate.kind == GateKind::Barrier ? 0.0 : 1.0;
                    }) +
      0.5);
  m.two_qubit_depth = static_cast<int>(
      critical_path(circuit,
                    [](const Gate& gate) {
                      return gate.is_two_qubit() ? 1.0 : 0.0;
                    }) +
      0.5);
  return m;
}

std::map<std::string, std::size_t> gate_histogram(const Circuit& circuit) {
  std::map<std::string, std::size_t> histogram;
  for (const Gate& gate : circuit) {
    ++histogram[std::string(gate_info(gate.kind).name)];
  }
  return histogram;
}

double circuit_latency(
    const Circuit& circuit,
    const std::function<double(const Gate&)>& duration) {
  return critical_path(circuit, [&](const Gate& gate) {
    return gate.kind == GateKind::Barrier ? 0.0 : duration(gate);
  });
}

std::string MappingOverhead::to_string() const {
  std::string out;
  out += "added_gates=" + std::to_string(added_gates);
  out += " added_2q=" + std::to_string(added_two_qubit_gates);
  out += " added_depth=" + std::to_string(added_depth);
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), " gate_ratio=%.2f depth_ratio=%.2f",
                gate_ratio, depth_ratio);
  out += buffer;
  return out;
}

MappingOverhead compute_overhead(const Circuit& original,
                                 const Circuit& mapped) {
  const CircuitMetrics before = compute_metrics(original);
  const CircuitMetrics after = compute_metrics(mapped);
  MappingOverhead overhead;
  overhead.added_gates = after.total_gates >= before.total_gates
                             ? after.total_gates - before.total_gates
                             : 0;
  overhead.added_two_qubit_gates =
      after.two_qubit_gates >= before.two_qubit_gates
          ? after.two_qubit_gates - before.two_qubit_gates
          : 0;
  overhead.added_depth = std::max(0, after.depth - before.depth);
  if (before.total_gates > 0) {
    overhead.gate_ratio = static_cast<double>(after.total_gates) /
                          static_cast<double>(before.total_gates);
  }
  if (before.depth > 0) {
    overhead.depth_ratio =
        static_cast<double>(after.depth) / static_cast<double>(before.depth);
  }
  return overhead;
}

}  // namespace qmap
