#include "dense/dense_matrix.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

namespace dsk {

DenseMatrix::DenseMatrix(Index rows, Index cols, Shape)
    : rows_(rows), cols_(cols) {
  check(rows >= 0 && cols >= 0, "DenseMatrix: negative dimensions (", rows,
        " x ", cols, ")");
  data_.resize(static_cast<std::size_t>(rows) *
               static_cast<std::size_t>(cols));
}

DenseMatrix DenseMatrix::uninitialized(Index rows, Index cols) {
  DenseMatrix out(rows, cols, Shape{});
#ifndef NDEBUG
  out.fill(std::numeric_limits<Scalar>::quiet_NaN());
#endif
  return out;
}

void DenseMatrix::fill(Scalar value) {
  std::fill(data_.begin(), data_.end(), value);
}

void DenseMatrix::fill_random(Rng& rng, Scalar lo, Scalar hi) {
  for (auto& x : data_) {
    x = rng.next_in(lo, hi);
  }
}

void DenseMatrix::fill_gaussian(Rng& rng, Scalar stddev) {
  for (auto& x : data_) {
    x = stddev * rng.next_gaussian();
  }
}

DenseMatrix DenseMatrix::row_block(Index row_begin, Index row_end) const {
  check(0 <= row_begin && row_begin <= row_end && row_end <= rows_,
        "row_block: bad range [", row_begin, ", ", row_end, ") for ",
        rows_, " rows");
  DenseMatrix out = uninitialized(row_end - row_begin, cols_);
  std::memcpy(out.data_.data(), data_.data() + row_begin * cols_,
              static_cast<std::size_t>((row_end - row_begin) * cols_) *
                  sizeof(Scalar));
  return out;
}

DenseMatrix DenseMatrix::col_block(Index col_begin, Index col_end) const {
  check(0 <= col_begin && col_begin <= col_end && col_end <= cols_,
        "col_block: bad range [", col_begin, ", ", col_end, ") for ",
        cols_, " cols");
  DenseMatrix out = uninitialized(rows_, col_end - col_begin);
  for (Index i = 0; i < rows_; ++i) {
    std::memcpy(out.data_.data() + i * out.cols_,
                data_.data() + i * cols_ + col_begin,
                static_cast<std::size_t>(out.cols_) * sizeof(Scalar));
  }
  return out;
}

void DenseMatrix::place(const DenseMatrix& src, Index row_begin,
                        Index col_begin) {
  check(row_begin >= 0 && col_begin >= 0 &&
            row_begin + src.rows_ <= rows_ && col_begin + src.cols_ <= cols_,
        "place: source ", src.rows_, "x", src.cols_, " at (", row_begin,
        ",", col_begin, ") exceeds ", rows_, "x", cols_);
  for (Index i = 0; i < src.rows_; ++i) {
    std::memcpy(data_.data() + (row_begin + i) * cols_ + col_begin,
                src.data_.data() + i * src.cols_,
                static_cast<std::size_t>(src.cols_) * sizeof(Scalar));
  }
}

void DenseMatrix::add(const DenseMatrix& other) {
  check(same_shape(other), "add: shape mismatch ", rows_, "x", cols_,
        " vs ", other.rows_, "x", other.cols_);
  for (std::size_t k = 0; k < data_.size(); ++k) {
    data_[k] += other.data_[k];
  }
}

void DenseMatrix::scale(Scalar value) {
  for (auto& x : data_) {
    x *= value;
  }
}

Scalar DenseMatrix::frobenius_norm() const {
  Scalar sum = 0;
  for (const auto x : data_) {
    sum += x * x;
  }
  return std::sqrt(sum);
}

Scalar DenseMatrix::max_abs_diff(const DenseMatrix& other) const {
  check(same_shape(other), "max_abs_diff: shape mismatch");
  Scalar worst = 0;
  for (std::size_t k = 0; k < data_.size(); ++k) {
    const Scalar x = data_[k];
    const Scalar y = other.data_[k];
    if (std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y)) {
      continue;
    }
    const Scalar diff = std::abs(x - y);
    if (std::isnan(diff)) return diff;
    worst = std::max(worst, diff);
  }
  return worst;
}

} // namespace dsk
