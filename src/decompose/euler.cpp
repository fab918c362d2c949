#include "decompose/euler.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "ir/gate.hpp"

namespace qmap {
namespace {

constexpr double kTolerance = 1e-10;

Mat2 rotation(GateKind kind, double angle) {
  return make_gate(kind, {0}, {angle}).matrix2();
}

/// Checks the shape of a Matrix argument and narrows it to a Mat2.
Mat2 as_mat2(const Matrix& u, const char* caller) {
  if (u.rows() != 2 || u.cols() != 2) {
    throw Error(std::string(caller) + ": expected 2x2 matrix");
  }
  return {{u.at(0, 0), u.at(0, 1), u.at(1, 0), u.at(1, 1)}};
}

/// e^{i phase} m as a Matrix.
Matrix with_phase(const Mat2& m, double phase_angle) {
  const Complex phase = std::polar(1.0, phase_angle);
  Mat2 out;
  for (std::size_t i = 0; i < 4; ++i) out.data[i] = phase * m.data[i];
  return out.to_matrix();
}

/// The Bloch-sphere rotation by -120 degrees about (1,1,1)/sqrt(3):
/// conjugation by this unitary maps Rz -> Ry and Ry -> Rx, which turns a
/// ZYZ decomposition of the conjugated matrix into a YXY decomposition of
/// the original.
Mat2 axis_cycle() {
  // T = (I + i(X + Y + Z)) / 2.
  const Complex i{0.0, 1.0};
  const Complex half{0.5, 0.0};
  return {{half * (Complex{1, 0} + i), half * (i + Complex{1, 0}),
           half * (i - Complex{1, 0}), half * (Complex{1, 0} - i)}};
}

}  // namespace

EulerAngles zyz_decompose(const Mat2& u) {
  if (!u.is_unitary(1e-8)) {
    throw Error("zyz_decompose: matrix is not unitary");
  }
  const Complex a = u.at(0, 0);
  const Complex b = u.at(0, 1);
  const Complex c = u.at(1, 0);
  const Complex d = u.at(1, 1);
  EulerAngles out;
  out.theta = 2.0 * std::atan2(std::abs(c), std::abs(a));
  if (std::abs(c) < kTolerance) {
    // Diagonal (theta ~ 0): only phi + lambda is determined.
    out.lambda = 0.0;
    out.phi = std::arg(d) - std::arg(a);
    out.phase = std::arg(a) + (out.phi + out.lambda) / 2.0;
  } else if (std::abs(a) < kTolerance) {
    // Anti-diagonal (theta ~ pi): only phi - lambda is determined.
    out.lambda = 0.0;
    out.phi = std::arg(c) - std::arg(-b);
    out.phase = (std::arg(c) + std::arg(-b)) / 2.0;
  } else {
    out.phi = std::arg(c) - std::arg(a);
    out.lambda = std::arg(d) - std::arg(c);
    out.phase = std::arg(a) + (out.phi + out.lambda) / 2.0;
  }
  return out;
}

EulerAngles yxy_decompose(const Mat2& u) {
  const Mat2 t = axis_cycle();
  return zyz_decompose(t.dagger() * u * t);
}

EulerAngles zyz_decompose(const Matrix& u) {
  return zyz_decompose(as_mat2(u, "zyz_decompose"));
}

EulerAngles yxy_decompose(const Matrix& u) {
  return yxy_decompose(as_mat2(u, "yxy_decompose"));
}

Matrix matrix_from_zyz(const EulerAngles& angles) {
  return with_phase(rotation(GateKind::Rz, angles.phi) *
                        rotation(GateKind::Ry, angles.theta) *
                        rotation(GateKind::Rz, angles.lambda),
                    angles.phase);
}

Matrix matrix_from_yxy(const EulerAngles& angles) {
  return with_phase(rotation(GateKind::Ry, angles.phi) *
                        rotation(GateKind::Rx, angles.theta) *
                        rotation(GateKind::Ry, angles.lambda),
                    angles.phase);
}

}  // namespace qmap
