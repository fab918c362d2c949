// Circuit: an ordered list of gates over a fixed qubit register.
//
// This is the paper's "sequential list of quantum gates" program
// representation (Fig. 2, left input of the compiler). Order is program
// order; actual parallelism is derived later by the dependency DAG and the
// schedulers.
#pragma once

#include <string>
#include <vector>

#include "ir/gate.hpp"

namespace qmap {

class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(int num_qubits, std::string name = "circuit");

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] int num_cbits() const noexcept { return num_cbits_; }
  /// Grows the classical register (e.g. for declared-but-unused bits).
  void declare_cbits(int count);
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] std::size_t size() const noexcept { return gates_.size(); }
  [[nodiscard]] bool empty() const noexcept { return gates_.empty(); }
  [[nodiscard]] const Gate& gate(std::size_t i) const { return gates_[i]; }
  [[nodiscard]] const std::vector<Gate>& gates() const noexcept {
    return gates_;
  }
  [[nodiscard]] auto begin() const noexcept { return gates_.begin(); }
  [[nodiscard]] auto end() const noexcept { return gates_.end(); }

  /// Append a gate, validating qubit ranges. Returns the gate index.
  std::size_t add(Gate gate);

  /// Append without the operand range check, for trusted producers (the
  /// routing emitter) whose own invariants already guarantee validity —
  /// the emitter verifies adjacency against the device coupling graph,
  /// which subsumes the range check. Classical-register tracking matches
  /// add().
  std::size_t add_unchecked(Gate gate) {
    if (gate.kind == GateKind::Measure && gate.cbit >= num_cbits_) {
      num_cbits_ = gate.cbit + 1;
    }
    gates_.push_back(std::move(gate));
    return gates_.size() - 1;
  }

  /// Pre-sizes the gate list; producers that know an output bound
  /// (routing emitters) skip the growth reallocations.
  void reserve(std::size_t gates) { gates_.reserve(gates); }

  /// Moves the gate list out, leaving the circuit empty (register metadata
  /// intact). Trusted bulk-transfer primitive for the streaming layer: a
  /// chunked source drains parsed gates without per-gate copies, and the
  /// splice-style passes take / rewrite / set instead of rebuilding.
  [[nodiscard]] std::vector<Gate> take_gates() {
    std::vector<Gate> out = std::move(gates_);
    gates_.clear();
    return out;
  }

  /// Moves gate `i` out, leaving an empty gate in its slot: the streamed
  /// route emits each window gate this way once it is scheduled.
  [[nodiscard]] Gate take_gate(std::size_t i) { return std::move(gates_[i]); }

  /// Replaces the gate list wholesale, without re-validating operands.
  /// Counterpart of take_gates() for trusted producers; classical-register
  /// tracking matches add_unchecked().
  void set_gates(std::vector<Gate> gates) {
    gates_ = std::move(gates);
    for (const Gate& gate : gates_) {
      if (gate.kind == GateKind::Measure && gate.cbit >= num_cbits_) {
        num_cbits_ = gate.cbit + 1;
      }
    }
  }

  // Fluent single-gate builders. Each returns *this for chaining.
  Circuit& i(int q) { return emit(GateKind::I, {q}); }
  Circuit& x(int q) { return emit(GateKind::X, {q}); }
  Circuit& y(int q) { return emit(GateKind::Y, {q}); }
  Circuit& z(int q) { return emit(GateKind::Z, {q}); }
  Circuit& h(int q) { return emit(GateKind::H, {q}); }
  Circuit& s(int q) { return emit(GateKind::S, {q}); }
  Circuit& sdg(int q) { return emit(GateKind::Sdg, {q}); }
  Circuit& t(int q) { return emit(GateKind::T, {q}); }
  Circuit& tdg(int q) { return emit(GateKind::Tdg, {q}); }
  Circuit& sx(int q) { return emit(GateKind::SX, {q}); }
  Circuit& sxdg(int q) { return emit(GateKind::SXdg, {q}); }
  Circuit& rx(double theta, int q) { return emit(GateKind::Rx, {q}, {theta}); }
  Circuit& ry(double theta, int q) { return emit(GateKind::Ry, {q}, {theta}); }
  Circuit& rz(double theta, int q) { return emit(GateKind::Rz, {q}, {theta}); }
  Circuit& p(double lambda, int q) {
    return emit(GateKind::Phase, {q}, {lambda});
  }
  Circuit& u(double theta, double phi, double lambda, int q) {
    return emit(GateKind::U, {q}, {theta, phi, lambda});
  }
  Circuit& cx(int control, int target) {
    return emit(GateKind::CX, {control, target});
  }
  Circuit& cz(int a, int b) { return emit(GateKind::CZ, {a, b}); }
  Circuit& swap(int a, int b) { return emit(GateKind::SWAP, {a, b}); }
  Circuit& iswap(int a, int b) { return emit(GateKind::ISWAP, {a, b}); }
  Circuit& cp(double lambda, int a, int b) {
    return emit(GateKind::CPhase, {a, b}, {lambda});
  }
  Circuit& crz(double lambda, int control, int target) {
    return emit(GateKind::CRz, {control, target}, {lambda});
  }
  Circuit& ccx(int c1, int c2, int target) {
    return emit(GateKind::CCX, {c1, c2, target});
  }
  Circuit& cswap(int control, int a, int b) {
    return emit(GateKind::CSWAP, {control, a, b});
  }
  Circuit& measure(int qubit, int cbit);
  Circuit& measure_all();
  Circuit& barrier(std::vector<int> qubits = {});

  /// Append all gates of `other` (operand qubits are used verbatim).
  Circuit& append(const Circuit& other);

  /// Append all gates of `other`, relabeling its qubit k to `mapping[k]`.
  Circuit& append_mapped(const Circuit& other, const std::vector<int>& mapping);

  /// Adjoint circuit (reversed order, each unitary gate inverted).
  /// Throws CircuitError if the circuit contains measurements.
  [[nodiscard]] Circuit inverse() const;

  /// Copy containing only the unitary gates (drops measure/barrier).
  [[nodiscard]] Circuit unitary_part() const;

  /// Copy containing only the two-qubit gates (Fig. 1(b)'s CNOT skeleton).
  [[nodiscard]] Circuit two_qubit_skeleton() const;

  /// Multi-line textual listing, one gate per line.
  [[nodiscard]] std::string to_string() const;

 private:
  Circuit& emit(GateKind kind, std::vector<int> qubits,
                std::vector<double> params = {});
  void validate(const Gate& gate) const;

  int num_qubits_ = 0;
  int num_cbits_ = 0;
  std::string name_ = "circuit";
  std::vector<Gate> gates_;
};

}  // namespace qmap
