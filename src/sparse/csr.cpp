#include "sparse/csr.hpp"

#include "common/error.hpp"

namespace dsk {

CsrMatrix::CsrMatrix(Index rows, Index cols) : rows_(rows), cols_(cols) {
  check(rows >= 0 && cols >= 0, "CsrMatrix: negative dims");
  row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
}

CsrMatrix::CsrMatrix(Index rows, Index cols, std::vector<Index> row_ptr,
                     std::vector<Index> col_idx, std::vector<Scalar> values)
    : rows_(rows), cols_(cols), row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)), values_(std::move(values)) {
  check(static_cast<Index>(row_ptr_.size()) == rows_ + 1,
        "CsrMatrix: row_ptr length ", row_ptr_.size(), " != rows+1 = ",
        rows_ + 1);
  check(col_idx_.size() == values_.size(),
        "CsrMatrix: col_idx and values lengths differ");
  check(row_ptr_.front() == 0 &&
            row_ptr_.back() == static_cast<Index>(values_.size()),
        "CsrMatrix: row_ptr endpoints are inconsistent with nnz");
  for (std::size_t i = 1; i < row_ptr_.size(); ++i) {
    check(row_ptr_[i - 1] <= row_ptr_[i],
          "CsrMatrix: row_ptr must be non-decreasing");
  }
  for (const Index j : col_idx_) {
    check(0 <= j && j < cols_, "CsrMatrix: column ", j,
          " out of range [0, ", cols_, ")");
  }
}

} // namespace dsk
