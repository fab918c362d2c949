#include "common/matrix.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/error.hpp"

namespace qmap {

Matrix::Matrix(std::size_t n, std::initializer_list<Complex> values)
    : Matrix(n, n) {
  if (values.size() != n * n) {
    throw Error("Matrix: initializer list size does not match dimensions");
  }
  std::size_t i = 0;
  for (const Complex& v : values) data_[i++] = v;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = Complex{1.0, 0.0};
  return m;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) {
    throw Error("Matrix: dimension mismatch in multiplication");
  }
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const Complex a = at(i, k);
      if (a == Complex{0.0, 0.0}) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out.at(i, j) += a * rhs.at(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::dagger() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      out.at(j, i) = std::conj(at(i, j));
    }
  }
  return out;
}

Matrix Matrix::kron(const Matrix& rhs) const {
  Matrix out(rows_ * rhs.rows_, cols_ * rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      const Complex a = at(i, j);
      if (a == Complex{0.0, 0.0}) continue;
      for (std::size_t k = 0; k < rhs.rows_; ++k) {
        for (std::size_t l = 0; l < rhs.cols_; ++l) {
          out.at(i * rhs.rows_ + k, j * rhs.cols_ + l) = a * rhs.at(k, l);
        }
      }
    }
  }
  return out;
}

double Matrix::distance(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw Error("Matrix: dimension mismatch in distance");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    sum += std::norm(data_[i] - other.data_[i]);
  }
  return std::sqrt(sum);
}

bool Matrix::is_unitary(double tolerance) const {
  if (rows_ != cols_) return false;
  const Matrix product = *this * dagger();
  return product.approx_equal(identity(rows_), tolerance);
}

bool Matrix::approx_equal(const Matrix& other, double tolerance) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > tolerance) return false;
  }
  return true;
}

bool Matrix::equal_up_to_global_phase(const Matrix& other,
                                      double tolerance) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  // Find the largest-magnitude entry to fix the phase robustly.
  std::size_t best = 0;
  double best_mag = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const double mag = std::abs(data_[i]);
    if (mag > best_mag) {
      best_mag = mag;
      best = i;
    }
  }
  if (best_mag < tolerance) {
    // `this` is (numerically) zero: equal iff `other` is too.
    for (const Complex& v : other.data_) {
      if (std::abs(v) > tolerance) return false;
    }
    return true;
  }
  if (std::abs(other.data_[best]) < tolerance) return false;
  const Complex phase = other.data_[best] / data_[best];
  if (std::abs(std::abs(phase) - 1.0) > tolerance) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] * phase - other.data_[i]) > tolerance) return false;
  }
  return true;
}

std::string Matrix::to_string(int precision) const {
  std::string out;
  char buffer[96];
  for (std::size_t i = 0; i < rows_; ++i) {
    out += "[ ";
    for (std::size_t j = 0; j < cols_; ++j) {
      const Complex& v = at(i, j);
      std::snprintf(buffer, sizeof(buffer), "%+.*f%+.*fi ", precision,
                    v.real(), precision, v.imag());
      out += buffer;
    }
    out += "]\n";
  }
  return out;
}

Mat2 Mat2::operator*(const Mat2& rhs) const {
  Mat2 out;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t k = 0; k < 2; ++k) {
      const Complex a = at(i, k);
      if (a == Complex{0.0, 0.0}) continue;
      for (std::size_t j = 0; j < 2; ++j) out.at(i, j) += a * rhs.at(k, j);
    }
  }
  return out;
}

Mat2 Mat2::dagger() const {
  return {{std::conj(data[0]), std::conj(data[2]), std::conj(data[1]),
           std::conj(data[3])}};
}

bool Mat2::is_unitary(double tolerance) const {
  const Mat2 product = *this * dagger();
  const Mat2 id = identity();
  for (std::size_t i = 0; i < 4; ++i) {
    if (std::abs(product.data[i] - id.data[i]) > tolerance) return false;
  }
  return true;
}

bool Mat2::equal_up_to_global_phase(const Mat2& other,
                                    double tolerance) const {
  std::size_t best = 0;
  double best_mag = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const double mag = std::abs(data[i]);
    if (mag > best_mag) {
      best_mag = mag;
      best = i;
    }
  }
  if (best_mag < tolerance) {
    for (const Complex& v : other.data) {
      if (std::abs(v) > tolerance) return false;
    }
    return true;
  }
  if (std::abs(other.data[best]) < tolerance) return false;
  const Complex phase = other.data[best] / data[best];
  if (std::abs(std::abs(phase) - 1.0) > tolerance) return false;
  for (std::size_t i = 0; i < 4; ++i) {
    if (std::abs(data[i] * phase - other.data[i]) > tolerance) return false;
  }
  return true;
}

Matrix Mat2::to_matrix() const {
  return Matrix(2, {data[0], data[1], data[2], data[3]});
}

}  // namespace qmap
