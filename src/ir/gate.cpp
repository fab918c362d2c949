#include "ir/gate.hpp"

#include <array>
#include <cmath>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace qmap {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Indexed by static_cast<size_t>(GateKind).
constexpr std::array<GateInfo, 27> kGateInfos{{
    {"id", 1, 0, true, false, true},      // I
    {"x", 1, 0, true, false, false},      // X
    {"y", 1, 0, true, false, false},      // Y
    {"z", 1, 0, true, false, true},       // Z
    {"h", 1, 0, true, false, false},      // H
    {"s", 1, 0, true, false, true},       // S
    {"sdg", 1, 0, true, false, true},     // Sdg
    {"t", 1, 0, true, false, true},       // T
    {"tdg", 1, 0, true, false, true},     // Tdg
    {"sx", 1, 0, true, false, false},     // SX
    {"sxdg", 1, 0, true, false, false},   // SXdg
    {"rx", 1, 1, true, false, false},     // Rx
    {"ry", 1, 1, true, false, false},     // Ry
    {"rz", 1, 1, true, false, true},      // Rz
    {"p", 1, 1, true, false, true},       // Phase
    {"u", 1, 3, true, false, false},      // U
    {"cx", 2, 0, true, false, false},     // CX
    {"cz", 2, 0, true, true, true},       // CZ
    {"swap", 2, 0, true, true, false},    // SWAP
    {"iswap", 2, 0, true, true, false},   // ISWAP
    {"cp", 2, 1, true, true, true},       // CPhase
    {"crz", 2, 1, true, false, true},     // CRz
    {"move", 2, 0, true, true, false},    // Move (shuttle)
    {"ccx", 3, 0, true, false, false},    // CCX
    {"cswap", 3, 0, true, false, false},  // CSWAP
    {"measure", 1, 0, false, false, false},  // Measure
    {"barrier", 0, 0, false, true, false},   // Barrier (variadic arity)
}};

Mat2 one_qubit(Complex a, Complex b, Complex c, Complex d) {
  return {{a, b, c, d}};
}

}  // namespace

Mat2 u_matrix(double theta, double phi, double lambda) {
  // U(theta, phi, lambda) = Rz(phi) Ry(theta) Rz(lambda), the IBM Euler
  // parameterization from Sec. IV, written in its standard matrix form.
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  const Complex eiphi = std::polar(1.0, phi);
  const Complex eilam = std::polar(1.0, lambda);
  return one_qubit(Complex{c, 0.0}, -eilam * s, eiphi * s, eiphi * eilam * c);
}

const GateInfo& gate_info(GateKind kind) {
  return kGateInfos[static_cast<std::size_t>(kind)];
}

GateKind gate_kind_from_name(std::string_view name) {
  const std::string lowered = to_lower(name);
  for (std::size_t i = 0; i < kGateInfos.size(); ++i) {
    if (kGateInfos[i].name == lowered) return static_cast<GateKind>(i);
  }
  // Common aliases.
  if (lowered == "cnot") return GateKind::CX;
  if (lowered == "toffoli") return GateKind::CCX;
  if (lowered == "fredkin") return GateKind::CSWAP;
  if (lowered == "u3") return GateKind::U;
  if (lowered == "u1" || lowered == "phase") return GateKind::Phase;
  throw ParseError("unknown gate name: " + std::string(name));
}

std::string Gate::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void Gate::append_to(std::string& out) const {
  out += gate_info(kind).name;
  if (!params.empty()) {
    out += '(';
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (i != 0) out += ", ";
      append_double(out, params[i]);
    }
    out += ')';
  }
  out += ' ';
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    out += i == 0 ? "q" : ", q";
    append_int(out, qubits[i]);
  }
  if (kind == GateKind::Measure) {
    out += " -> c";
    append_int(out, cbit);
  }
}

Mat2 Gate::matrix2() const {
  const Complex i{0.0, 1.0};
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  switch (kind) {
    case GateKind::I:
      return Mat2::identity();
    case GateKind::X:
      return one_qubit(0, 1, 1, 0);
    case GateKind::Y:
      return one_qubit(0, -i, i, 0);
    case GateKind::Z:
      return one_qubit(1, 0, 0, -1);
    case GateKind::H:
      return one_qubit(inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2);
    case GateKind::S:
      return one_qubit(1, 0, 0, i);
    case GateKind::Sdg:
      return one_qubit(1, 0, 0, -i);
    case GateKind::T:
      return one_qubit(1, 0, 0, std::polar(1.0, kPi / 4.0));
    case GateKind::Tdg:
      return one_qubit(1, 0, 0, std::polar(1.0, -kPi / 4.0));
    case GateKind::SX:
      return one_qubit(Complex{0.5, 0.5}, Complex{0.5, -0.5},
                       Complex{0.5, -0.5}, Complex{0.5, 0.5});
    case GateKind::SXdg:
      return one_qubit(Complex{0.5, -0.5}, Complex{0.5, 0.5},
                       Complex{0.5, 0.5}, Complex{0.5, -0.5});
    case GateKind::Rx: {
      const double c = std::cos(params[0] / 2.0);
      const double s = std::sin(params[0] / 2.0);
      return one_qubit(c, -i * s, -i * s, c);
    }
    case GateKind::Ry: {
      const double c = std::cos(params[0] / 2.0);
      const double s = std::sin(params[0] / 2.0);
      return one_qubit(c, -s, s, c);
    }
    case GateKind::Rz: {
      const Complex e = std::polar(1.0, params[0] / 2.0);
      return one_qubit(std::conj(e), 0, 0, e);
    }
    case GateKind::Phase:
      return one_qubit(1, 0, 0, std::polar(1.0, params[0]));
    case GateKind::U:
      return u_matrix(params[0], params[1], params[2]);
    default:
      throw CircuitError("matrix2() called on a gate that is not a "
                         "single-qubit unitary");
  }
}

Matrix Gate::matrix() const {
  if (is_unitary() && gate_info(kind).arity == 1) {
    return matrix2().to_matrix();
  }
  const Complex i{0.0, 1.0};
  switch (kind) {
    case GateKind::CX:
      return Matrix(4, {1, 0, 0, 0,  //
                        0, 1, 0, 0,  //
                        0, 0, 0, 1,  //
                        0, 0, 1, 0});
    case GateKind::CZ:
      return Matrix(4, {1, 0, 0, 0,  //
                        0, 1, 0, 0,  //
                        0, 0, 1, 0,  //
                        0, 0, 0, -1});
    case GateKind::SWAP:
    case GateKind::Move:  // wire semantics of a shuttle equal a SWAP
      return Matrix(4, {1, 0, 0, 0,  //
                        0, 0, 1, 0,  //
                        0, 1, 0, 0,  //
                        0, 0, 0, 1});
    case GateKind::ISWAP:
      return Matrix(4, {1, 0, 0, 0,  //
                        0, 0, i, 0,  //
                        0, i, 0, 0,  //
                        0, 0, 0, 1});
    case GateKind::CPhase: {
      Matrix m = Matrix::identity(4);
      m.at(3, 3) = std::polar(1.0, params[0]);
      return m;
    }
    case GateKind::CRz: {
      Matrix m = Matrix::identity(4);
      m.at(2, 2) = std::polar(1.0, -params[0] / 2.0);
      m.at(3, 3) = std::polar(1.0, params[0] / 2.0);
      return m;
    }
    case GateKind::CCX: {
      Matrix m = Matrix::identity(8);
      m.at(6, 6) = 0;
      m.at(7, 7) = 0;
      m.at(6, 7) = 1;
      m.at(7, 6) = 1;
      return m;
    }
    case GateKind::CSWAP: {
      Matrix m = Matrix::identity(8);
      m.at(5, 5) = 0;
      m.at(6, 6) = 0;
      m.at(5, 6) = 1;
      m.at(6, 5) = 1;
      return m;
    }
    case GateKind::Measure:
    case GateKind::Barrier:
      throw CircuitError("matrix() called on non-unitary gate");
    default:
      break;
  }
  throw CircuitError("matrix(): unhandled gate kind");
}

Gate make_gate(GateKind kind, std::vector<int> qubits,
               std::vector<double> params) {
  const GateInfo& info = gate_info(kind);
  if (kind != GateKind::Barrier &&
      qubits.size() != static_cast<std::size_t>(info.arity)) {
    throw CircuitError("gate '" + std::string(info.name) + "' expects " +
                       std::to_string(info.arity) + " qubits, got " +
                       std::to_string(qubits.size()));
  }
  if (params.size() != static_cast<std::size_t>(info.num_params)) {
    throw CircuitError("gate '" + std::string(info.name) + "' expects " +
                       std::to_string(info.num_params) + " params, got " +
                       std::to_string(params.size()));
  }
  for (std::size_t a = 0; a < qubits.size(); ++a) {
    for (std::size_t b = a + 1; b < qubits.size(); ++b) {
      if (qubits[a] == qubits[b]) {
        throw CircuitError("gate '" + std::string(info.name) +
                           "' has duplicate qubit operand q" +
                           std::to_string(qubits[a]));
      }
    }
  }
  Gate g;
  g.kind = kind;
  g.qubits = std::move(qubits);
  g.params = std::move(params);
  return g;
}

Gate make_measure(int qubit, int cbit) {
  Gate g;
  g.kind = GateKind::Measure;
  g.qubits = {qubit};
  g.cbit = cbit;
  return g;
}

Gate make_barrier(std::vector<int> qubits) {
  Gate g;
  g.kind = GateKind::Barrier;
  g.qubits = std::move(qubits);
  return g;
}

}  // namespace qmap
