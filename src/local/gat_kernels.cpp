#include "local/gat_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace dsk {

std::uint64_t gat_edge_logits(const CsrMatrix& pattern,
                              std::span<const Scalar> u,
                              std::span<const Scalar> v,
                              std::span<Scalar> scores) {
  check(static_cast<Index>(u.size()) == pattern.rows(),
        "gat_edge_logits: u length ", u.size(), " != rows ", pattern.rows());
  check(static_cast<Index>(v.size()) == pattern.cols(),
        "gat_edge_logits: v length ", v.size(), " != cols ", pattern.cols());
  check(static_cast<Index>(scores.size()) == pattern.nnz(),
        "gat_edge_logits: scores length mismatch");
  const auto row_ptr = pattern.row_ptr();
  const auto col_idx = pattern.col_idx();
  for (Index i = 0; i < pattern.rows(); ++i) {
    const Scalar ui = u[static_cast<std::size_t>(i)];
    for (Index k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      scores[static_cast<std::size_t>(k)] +=
          ui + v[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(
                   k)])];
    }
  }
  return 2ULL * static_cast<std::uint64_t>(pattern.nnz());
}

void leaky_relu(std::span<Scalar> values, Scalar negative_slope) {
  for (auto& x : values) {
    if (x < 0) x *= negative_slope;
  }
}

void row_softmax(CsrMatrix& matrix) {
  std::vector<Scalar> shift(static_cast<std::size_t>(matrix.rows()));
  row_max(matrix, shift);
  std::vector<Scalar> denom(static_cast<std::size_t>(matrix.rows()),
                            Scalar{0});
  row_exp_sum(matrix, shift, denom);
  apply_softmax(matrix, shift, denom);
}

void row_max(const CsrMatrix& matrix, std::span<Scalar> out) {
  check(static_cast<Index>(out.size()) == matrix.rows(),
        "row_max: output length mismatch");
  for (Index i = 0; i < matrix.rows(); ++i) {
    Scalar best = -std::numeric_limits<Scalar>::infinity();
    for (const Scalar x : matrix.row_values(i)) {
      best = std::max(best, x);
    }
    out[static_cast<std::size_t>(i)] = best;
  }
}

void row_exp_sum(const CsrMatrix& matrix, std::span<const Scalar> shift,
                 std::span<Scalar> out) {
  check(static_cast<Index>(shift.size()) == matrix.rows() &&
            static_cast<Index>(out.size()) == matrix.rows(),
        "row_exp_sum: length mismatch");
  for (Index i = 0; i < matrix.rows(); ++i) {
    Scalar sum = 0;
    for (const Scalar x : matrix.row_values(i)) {
      sum += std::exp(x - shift[static_cast<std::size_t>(i)]);
    }
    out[static_cast<std::size_t>(i)] += sum;
  }
}

void apply_softmax(CsrMatrix& matrix, std::span<const Scalar> shift,
                   std::span<const Scalar> denom) {
  check(static_cast<Index>(shift.size()) == matrix.rows() &&
            static_cast<Index>(denom.size()) == matrix.rows(),
        "apply_softmax: length mismatch");
  for (Index i = 0; i < matrix.rows(); ++i) {
    const Scalar s = shift[static_cast<std::size_t>(i)];
    const Scalar d = denom[static_cast<std::size_t>(i)];
    for (auto& x : matrix.row_values(i)) {
      x = d > 0 ? std::exp(x - s) / d : Scalar{0};
    }
  }
}

} // namespace dsk
