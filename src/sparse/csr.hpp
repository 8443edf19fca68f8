#pragma once
/// \file csr.hpp
/// Compressed sparse row matrix: the compute format for local SDDMM and
/// SpMM kernels. Row pointers are stored so kernels iterate nonzeros of a
/// row contiguously, which is what gives SDDMM/SpMM their shared
/// "one dense-row pair per nonzero" access pattern (paper Section IV-A).

#include <span>
#include <vector>

#include "common/types.hpp"

namespace dsk {

class CooMatrix;

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Empty matrix of the given shape (no nonzeros).
  CsrMatrix(Index rows, Index cols);

  CsrMatrix(Index rows, Index cols, std::vector<Index> row_ptr,
            std::vector<Index> col_idx, std::vector<Scalar> values);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index nnz() const { return static_cast<Index>(values_.size()); }

  std::span<const Index> row_ptr() const { return row_ptr_; }
  std::span<const Index> col_idx() const { return col_idx_; }
  std::span<const Scalar> values() const { return values_; }
  std::span<Scalar> values() { return values_; }

  /// Nonzero count of row i.
  Index row_nnz(Index i) const {
    return row_ptr_[static_cast<std::size_t>(i + 1)] -
           row_ptr_[static_cast<std::size_t>(i)];
  }

  /// Column indices of row i.
  std::span<const Index> row_cols(Index i) const {
    const auto begin = static_cast<std::size_t>(row_ptr_[i]);
    const auto end = static_cast<std::size_t>(row_ptr_[i + 1]);
    return {col_idx_.data() + begin, end - begin};
  }

  /// Values of row i (mutable overload used by kernels writing SDDMM
  /// output in place).
  std::span<Scalar> row_values(Index i) {
    const auto begin = static_cast<std::size_t>(row_ptr_[i]);
    const auto end = static_cast<std::size_t>(row_ptr_[i + 1]);
    return {values_.data() + begin, end - begin};
  }
  std::span<const Scalar> row_values(Index i) const {
    const auto begin = static_cast<std::size_t>(row_ptr_[i]);
    const auto end = static_cast<std::size_t>(row_ptr_[i + 1]);
    return {values_.data() + begin, end - begin};
  }

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> row_ptr_{0};
  std::vector<Index> col_idx_;
  std::vector<Scalar> values_;
};

} // namespace dsk
