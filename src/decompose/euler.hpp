// Euler-angle decompositions of single-qubit unitaries.
//
// Sec. IV: IBM devices natively run U(theta, phi, lambda) =
// Rz(phi) Ry(theta) Rz(lambda) — the ZYZ decomposition. Sec. V: Surface-17
// natively runs only Rx and Ry rotations, so single-qubit unitaries are
// lowered via the YXY decomposition U = Ry(phi) Rx(theta) Ry(lambda).
#pragma once

#include "common/matrix.hpp"

namespace qmap {

struct EulerAngles {
  double theta = 0.0;   // middle rotation
  double phi = 0.0;     // left (last applied) rotation
  double lambda = 0.0;  // right (first applied) rotation
  double phase = 0.0;   // global phase alpha

  /// Reconstruction helper for tests: e^{i phase} A(phi) B(theta) A(lambda).
};

/// U = e^{i phase} Rz(phi) Ry(theta) Rz(lambda). Throws Error unless `u`
/// is unitary within 1e-8.
[[nodiscard]] EulerAngles zyz_decompose(const Mat2& u);

/// U = e^{i phase} Ry(phi) Rx(theta) Ry(lambda).
[[nodiscard]] EulerAngles yxy_decompose(const Mat2& u);

/// Matrix forms of the two decompositions; `u` must be 2x2.
[[nodiscard]] EulerAngles zyz_decompose(const Matrix& u);
[[nodiscard]] EulerAngles yxy_decompose(const Matrix& u);

/// Rebuilds the matrix from ZYZ angles (test helper).
[[nodiscard]] Matrix matrix_from_zyz(const EulerAngles& angles);

/// Rebuilds the matrix from YXY angles (test helper).
[[nodiscard]] Matrix matrix_from_yxy(const EulerAngles& angles);

}  // namespace qmap
