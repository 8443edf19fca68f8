#pragma once
/// \file dense_matrix.hpp
/// Row-major dense matrix. This is the embedding-matrix container used for
/// A (m x r) and B (n x r) throughout the library; rows are contiguous so
/// that row-granular communication (block rows, all-gathers of row blocks)
/// is a single memcpy per block.

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace dsk {

/// std::allocator whose value-less construct() default-initializes: a
/// vector resized through it leaves Scalars unwritten instead of
/// zero-filling them. Explicit fills (assign(n, 0)) still write.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// Zero-initialized rows x cols matrix. Dimensions are validated
  /// before the storage is sized: a negative product cast to size_t
  /// would otherwise request an enormous allocation.
  DenseMatrix(Index rows, Index cols) : DenseMatrix(rows, cols, Shape{}) {
    data_.assign(data_.size(), Scalar{0});
  }

  /// Matrix holding a copy of `values` (row-major, size rows*cols).
  DenseMatrix(Index rows, Index cols, std::span<const Scalar> values)
      : DenseMatrix(rows, cols, Shape{}) {
    check(values.size() == data_.size(), "DenseMatrix: value count ",
          values.size(), " != ", rows, " x ", cols);
    std::copy(values.begin(), values.end(), data_.begin());
  }

  DenseMatrix(const DenseMatrix&) = default;
  DenseMatrix& operator=(const DenseMatrix&) = default;
  /// A moved-from matrix is empty (0 x 0), never a shape without
  /// storage.
  DenseMatrix(DenseMatrix&& other) noexcept
      : rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)),
        data_(std::move(other.data_)) {}
  DenseMatrix& operator=(DenseMatrix&& other) noexcept {
    rows_ = std::exchange(other.rows_, 0);
    cols_ = std::exchange(other.cols_, 0);
    data_ = std::move(other.data_);
    return *this;
  }

  /// rows x cols matrix whose entries are left unwritten — for buffers
  /// the caller overwrites in full before reading (gather outputs,
  /// landing blocks, outputs every rank writes a disjoint part of).
  /// Debug builds fill it with quiet NaNs, so an element some path
  /// forgets to write fails every reference comparison.
  static DenseMatrix uninitialized(Index rows, Index cols);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index size() const { return rows_ * cols_; }

  Scalar& operator()(Index i, Index j) {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }
  Scalar operator()(Index i, Index j) const {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  /// Contiguous view of row i.
  std::span<Scalar> row(Index i) {
    return {data_.data() + i * cols_, static_cast<std::size_t>(cols_)};
  }
  std::span<const Scalar> row(Index i) const {
    return {data_.data() + i * cols_, static_cast<std::size_t>(cols_)};
  }

  std::span<Scalar> data() { return data_; }
  std::span<const Scalar> data() const { return data_; }

  /// Set every entry to value.
  void fill(Scalar value);

  /// Fill with uniform values in [lo, hi) from rng.
  void fill_random(Rng& rng, Scalar lo = -1.0, Scalar hi = 1.0);

  /// Fill with N(0, stddev) values from rng.
  void fill_gaussian(Rng& rng, Scalar stddev = 1.0);

  /// Rows [row_begin, row_end) as a copy.
  DenseMatrix row_block(Index row_begin, Index row_end) const;

  /// Columns [col_begin, col_end) as a copy.
  DenseMatrix col_block(Index col_begin, Index col_end) const;

  /// Copy src into this matrix starting at (row_begin, col_begin).
  void place(const DenseMatrix& src, Index row_begin, Index col_begin);

  /// this += other (same shape).
  void add(const DenseMatrix& other);

  /// this *= value.
  void scale(Scalar value);

  /// Frobenius norm.
  Scalar frobenius_norm() const;

  /// Largest absolute entry difference against other (same shape).
  /// Bit-identical entries contribute 0; any other pair whose
  /// difference is NaN (a NaN on either side) makes the result NaN, so
  /// `== 0.0` and `< tol` checks cannot pass over a NaN.
  Scalar max_abs_diff(const DenseMatrix& other) const;

  bool same_shape(const DenseMatrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  struct Shape {};
  /// Validated shape with unwritten storage; the public constructors
  /// fill it.
  DenseMatrix(Index rows, Index cols, Shape);

  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Scalar, DefaultInitAllocator<Scalar>> data_;
};

} // namespace dsk
