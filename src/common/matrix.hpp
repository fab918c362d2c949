// Dense complex matrices for gate semantics and unitary equivalence checks.
//
// Sizes stay tiny (2x2, 4x4, 8x8) on the gate-decomposition path and reach
// 2^n x 2^n only in the unitary-builder used for small-circuit verification,
// so a straightforward row-major std::vector representation is appropriate.
// The single-qubit fuse/lower path runs on Mat2, a fixed-size 2x2 that
// repeats Matrix's float operations exactly without touching the heap.
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace qmap {

using Complex = std::complex<double>;

/// Row-major dense complex matrix with value semantics.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, Complex{0.0, 0.0}) {}
  /// Square matrix from a row-major initializer list; size must be a square.
  Matrix(std::size_t n, std::initializer_list<Complex> values);

  [[nodiscard]] static Matrix identity(std::size_t n);
  [[nodiscard]] static Matrix zero(std::size_t n) { return Matrix(n, n); }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] Complex& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const Complex& at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  Complex& operator()(std::size_t r, std::size_t c) { return at(r, c); }
  const Complex& operator()(std::size_t r, std::size_t c) const {
    return at(r, c);
  }

  [[nodiscard]] Matrix operator*(const Matrix& rhs) const;
  [[nodiscard]] Matrix dagger() const;
  [[nodiscard]] Matrix kron(const Matrix& rhs) const;

  /// Frobenius-norm distance.
  [[nodiscard]] double distance(const Matrix& other) const;

  /// True when the matrix is unitary within `tolerance`.
  [[nodiscard]] bool is_unitary(double tolerance = 1e-9) const;

  /// Element-wise equality within `tolerance`.
  [[nodiscard]] bool approx_equal(const Matrix& other,
                                  double tolerance = 1e-9) const;

  /// Equality up to a global phase: true when other == e^{i phi} * this.
  [[nodiscard]] bool equal_up_to_global_phase(const Matrix& other,
                                              double tolerance = 1e-9) const;

  [[nodiscard]] std::string to_string(int precision = 3) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Complex> data_;
};

/// Row-major 2x2 complex matrix by value. Every operation repeats the
/// float operations of its Matrix counterpart in the same order
/// (operator*'s skip-zero, +=-from-zero accumulation; the largest-entry
/// pivot of equal_up_to_global_phase), so results are bit-identical.
struct Mat2 {
  std::array<Complex, 4> data{};

  [[nodiscard]] static Mat2 identity() {
    return {{Complex{1.0, 0.0}, Complex{0.0, 0.0}, Complex{0.0, 0.0},
             Complex{1.0, 0.0}}};
  }

  [[nodiscard]] Complex& at(std::size_t r, std::size_t c) {
    return data[r * 2 + c];
  }
  [[nodiscard]] const Complex& at(std::size_t r, std::size_t c) const {
    return data[r * 2 + c];
  }

  [[nodiscard]] Mat2 operator*(const Mat2& rhs) const;
  [[nodiscard]] Mat2 dagger() const;
  [[nodiscard]] bool is_unitary(double tolerance = 1e-9) const;
  [[nodiscard]] bool equal_up_to_global_phase(const Mat2& other,
                                              double tolerance = 1e-9) const;
  [[nodiscard]] Matrix to_matrix() const;
};

}  // namespace qmap
