#include "ir/gate_stream.hpp"

#include <algorithm>

namespace qmap {

std::size_t CircuitSource::pull(std::vector<Gate>& out,
                                std::size_t max_gates) {
  const std::size_t remaining = circuit_->size() - cursor_;
  const std::size_t take = std::min(max_gates, remaining);
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(circuit_->gate(cursor_ + i));
  }
  cursor_ += take;
  return take;
}

CircuitSink::CircuitSink(int num_qubits, std::string name)
    : circuit_(num_qubits, std::move(name)) {}

void CircuitSink::put_chunk(std::vector<Gate>& gates) {
  // No reserve(size + chunk): an exact reserve per chunk reallocates and
  // moves the whole circuit on every chunk; push_back's geometric growth
  // moves each gate O(1) times.
  for (Gate& gate : gates) circuit_.add_unchecked(std::move(gate));
}

void CountingSink::put(Gate gate) {
  ++total_;
  if (gate.is_two_qubit()) ++two_qubit_;
}

void CountingSink::put_chunk(std::vector<Gate>& gates) {
  total_ += gates.size();
  for (const Gate& gate : gates) {
    if (gate.is_two_qubit()) ++two_qubit_;
  }
}

}  // namespace qmap
