// Reference for SingleQubitFuser (decompose/decomposer.hpp): the plain
// per-run synthesis it shipped with, kept test-local as the oracle for
// byte-identical output.
//
//   a run of single-qubit unitaries on one qubit accumulates into a Mat2
//   (each new gate multiplied on the left); a multi-qubit or non-unitary
//   gate closes the run on each of its operands, finish() closes every
//   open run in qubit order; a closed run within 1e-10 of the identity
//   (up to global phase) emits nothing, otherwise one U(theta, phi,
//   lambda) by ZYZ, or, in the {Rx, Ry} basis, the ZYZ angles rebuilt as
//   a U matrix and re-split by YXY into Ry Rx Ry with rotations of
//   magnitude <= 1e-12 skipped.
//
// Every run is synthesized from scratch: no state but the open runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "decompose/euler.hpp"
#include "ir/gate.hpp"

namespace qmap {

class ReferenceFuser {
 public:
  /// `rotations`: emit Ry Rx Ry (Surface-style {Rx, Ry}) instead of U.
  ReferenceFuser(int num_qubits, bool rotations)
      : pending_(static_cast<std::size_t>(num_qubits)),
        open_(static_cast<std::size_t>(num_qubits), 0),
        rotations_(rotations) {}

  void push(Gate gate, std::vector<Gate>& out) {
    if (gate.is_unitary() && gate_info(gate.kind).arity == 1) {
      const auto index = static_cast<std::size_t>(gate.qubits[0]);
      const Mat2 m = gate.matrix2();
      pending_[index] = open_[index] ? m * pending_[index] : m;
      open_[index] = 1;
      return;
    }
    for (const int q : gate.qubits) flush(q, out);
    out.push_back(std::move(gate));
  }

  void finish(std::vector<Gate>& out) {
    for (int q = 0; q < static_cast<int>(pending_.size()); ++q) flush(q, out);
  }

 private:
  void flush(int qubit, std::vector<Gate>& out) {
    const auto index = static_cast<std::size_t>(qubit);
    if (!open_[index]) return;
    open_[index] = 0;
    const Mat2& run = pending_[index];
    if (run.equal_up_to_global_phase(Mat2::identity(), 1e-10)) return;
    const EulerAngles angles = zyz_decompose(run);
    if (!rotations_) {
      out.push_back(make_gate(GateKind::U, {qubit},
                              {angles.theta, angles.phi, angles.lambda}));
      return;
    }
    const EulerAngles yxy =
        yxy_decompose(u_matrix(angles.theta, angles.phi, angles.lambda));
    constexpr double kAngleTolerance = 1e-12;
    if (std::abs(yxy.lambda) > kAngleTolerance) {
      out.push_back(make_gate(GateKind::Ry, {qubit}, {yxy.lambda}));
    }
    if (std::abs(yxy.theta) > kAngleTolerance) {
      out.push_back(make_gate(GateKind::Rx, {qubit}, {yxy.theta}));
    }
    if (std::abs(yxy.phi) > kAngleTolerance) {
      out.push_back(make_gate(GateKind::Ry, {qubit}, {yxy.phi}));
    }
  }

  std::vector<Mat2> pending_;
  std::vector<char> open_;
  bool rotations_;
};

/// First difference between two gate lists, compared gate for gate by
/// kind, qubits, classical bit and the exact bits of every parameter;
/// empty when they are identical.
inline std::string first_gate_difference(const std::vector<Gate>& got,
                                         const std::vector<Gate>& want) {
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  };
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Gate& g = got[i];
    const Gate& w = want[i];
    if (g.kind != w.kind || g.qubits != w.qubits || g.cbit != w.cbit ||
        !same_bits(g.params, w.params)) {
      return "gate " + std::to_string(i) + ": got '" + g.to_string() +
             "', want '" + w.to_string() + "'" +
             (g.to_string() == w.to_string() ? " (parameter bits differ)"
                                             : "");
    }
  }
  if (got.size() != want.size()) {
    return "length: got " + std::to_string(got.size()) + " gates, want " +
           std::to_string(want.size());
  }
  return {};
}

}  // namespace qmap
